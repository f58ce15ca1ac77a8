package trace

import (
	"strings"
	"testing"

	"earmac/internal/core"
	"earmac/internal/mac"
)

func actions() []core.Action {
	p := mac.Packet{ID: 4, Src: 0, Dest: 2, Injected: 1}
	return []core.Action{
		core.Transmit(mac.PacketMsg(p)),
		core.Off(),
		core.Listen(),
	}
}

func TestTraceHeardAndDelivered(t *testing.T) {
	var sb strings.Builder
	l := &Logger{W: &sb}
	p := mac.Packet{ID: 4, Src: 0, Dest: 2, Injected: 1}
	l.TraceRound(5, actions(), mac.Feedback{Kind: mac.FbHeard, Msg: mac.PacketMsg(p)}, []mac.Packet{p})
	out := sb.String()
	for _, want := range []string{"r5", "on=[s0 s2]", "pkt#4", "delivered to s2 after 4 rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q: %s", want, out)
		}
	}
}

func TestTraceSilenceAndCollision(t *testing.T) {
	var sb strings.Builder
	l := &Logger{W: &sb}
	l.TraceRound(1, []core.Action{core.Listen()}, mac.Feedback{Kind: mac.FbSilence}, nil)
	twoTx := []core.Action{
		core.Transmit(mac.CtrlMsg(mac.MakeControl(3))),
		core.Transmit(mac.CtrlMsg(nil)),
	}
	l.TraceRound(2, twoTx, mac.Feedback{Kind: mac.FbCollision}, nil)
	out := sb.String()
	if !strings.Contains(out, "silence") {
		t.Errorf("missing silence: %s", out)
	}
	if !strings.Contains(out, "COLLISION (2 transmitters)") {
		t.Errorf("missing collision: %s", out)
	}
}

func TestTraceWindow(t *testing.T) {
	var sb strings.Builder
	l := &Logger{W: &sb, From: 10, To: 12}
	for r := int64(0); r < 20; r++ {
		l.TraceRound(r, []core.Action{core.Off()}, mac.Feedback{Kind: mac.FbSilence}, nil)
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != 2 {
		t.Errorf("window produced %d lines, want 2:\n%s", lines, sb.String())
	}
}

func TestTraceNames(t *testing.T) {
	var sb strings.Builder
	l := &Logger{W: &sb, Names: []string{"alpha", "beta"}}
	l.TraceRound(0, []core.Action{core.Listen(), core.Off()}, mac.Feedback{Kind: mac.FbSilence}, nil)
	if !strings.Contains(sb.String(), "alpha") {
		t.Errorf("names not used: %s", sb.String())
	}
}

func TestLightAndCtrlDescriptions(t *testing.T) {
	var sb strings.Builder
	l := &Logger{W: &sb}
	ctrl := mac.MakeControl(5)
	l.TraceRound(0, []core.Action{core.Transmit(mac.CtrlMsg(ctrl))},
		mac.Feedback{Kind: mac.FbHeard, Msg: mac.CtrlMsg(ctrl)}, nil)
	if !strings.Contains(sb.String(), "light(8b)") {
		t.Errorf("light message not described: %s", sb.String())
	}
	p := mac.Packet{ID: 1}
	l2 := &Logger{W: &sb}
	sb.Reset()
	msg := mac.Message{HasPacket: true, Packet: p, Ctrl: ctrl}
	l2.TraceRound(0, []core.Action{core.Transmit(msg)}, mac.Feedback{Kind: mac.FbHeard, Msg: msg}, nil)
	if !strings.Contains(sb.String(), "+8b") {
		t.Errorf("packet+ctrl message not described: %s", sb.String())
	}
}
