// Package trace renders per-round simulation events as a human-readable
// log — which stations were on, who transmitted what, collisions,
// deliveries. It implements core.Tracer and is wired into earmac-sim's
// -trace flag; it is also the debugging tool used while bringing up the
// algorithms.
package trace

import (
	"fmt"
	"io"
	"strings"

	"earmac/internal/core"
	"earmac/internal/mac"
)

// Logger writes one line per round to W, within the configured round
// window (inclusive From, exclusive To; To == 0 means unbounded).
type Logger struct {
	W    io.Writer
	From int64
	To   int64
	// Names maps station IDs to labels; station numbers are used if nil.
	Names []string
}

func (l *Logger) name(st int) string {
	if l.Names != nil && st < len(l.Names) {
		return l.Names[st]
	}
	return fmt.Sprintf("s%d", st)
}

// TraceRound implements core.Tracer.
func (l *Logger) TraceRound(round int64, actions []core.Action, fb mac.Feedback, delivered []mac.Packet) {
	if round < l.From || (l.To > 0 && round >= l.To) {
		return
	}
	var on, tx []string
	for i, a := range actions {
		if a.On {
			on = append(on, l.name(i))
		}
		if a.Transmit {
			tx = append(tx, l.describeTx(i, a.Msg))
		}
	}
	var event string
	switch fb.Kind {
	case mac.FbSilence:
		event = "silence"
	case mac.FbCollision:
		event = fmt.Sprintf("COLLISION (%d transmitters)", len(tx))
	case mac.FbHeard:
		event = "heard " + strings.Join(tx, " ")
		for _, p := range delivered {
			event += fmt.Sprintf(" → delivered to %s after %d rounds", l.name(p.Dest), round-p.Injected)
		}
	}
	fmt.Fprintf(l.W, "r%-8d on=[%s] %s\n", round, strings.Join(on, " "), event)
}

func (l *Logger) describeTx(station int, msg mac.Message) string {
	switch {
	case msg.HasPacket && len(msg.Ctrl) > 0:
		return fmt.Sprintf("%s:%v+%db", l.name(station), msg.Packet, msg.Ctrl.Bits())
	case msg.HasPacket:
		return fmt.Sprintf("%s:%v", l.name(station), msg.Packet)
	default:
		return fmt.Sprintf("%s:light(%db)", l.name(station), msg.Ctrl.Bits())
	}
}
