package mac

import (
	"testing"
	"testing/quick"
)

func TestMakeControlSizes(t *testing.T) {
	cases := []struct{ bits, wantBytes int }{
		{0, 0}, {1, 1}, {7, 1}, {8, 1}, {9, 2}, {16, 2}, {63, 8}, {64, 8}, {65, 9},
	}
	for _, c := range cases {
		got := MakeControl(c.bits)
		if len(got) != c.wantBytes {
			t.Errorf("MakeControl(%d) = %d bytes, want %d", c.bits, len(got), c.wantBytes)
		}
	}
}

func TestSetBitGetBit(t *testing.T) {
	c := MakeControl(20)
	for i := 0; i < 20; i++ {
		if c.Bit(i) {
			t.Fatalf("fresh control has bit %d set", i)
		}
	}
	set := []int{0, 3, 7, 8, 13, 19}
	for _, i := range set {
		c.SetBit(i, true)
	}
	for i := 0; i < 20; i++ {
		want := false
		for _, j := range set {
			if i == j {
				want = true
			}
		}
		if c.Bit(i) != want {
			t.Errorf("bit %d = %v, want %v", i, c.Bit(i), want)
		}
	}
	c.SetBit(7, false)
	if c.Bit(7) {
		t.Error("clearing bit 7 failed")
	}
	if !c.Bit(8) {
		t.Error("clearing bit 7 disturbed bit 8")
	}
}

func TestBitBeyondCapacityReadsZero(t *testing.T) {
	c := MakeControl(8)
	if c.Bit(100) {
		t.Error("out-of-range bit should read as zero")
	}
	var nilCtrl Control
	if nilCtrl.Bit(0) {
		t.Error("nil control bit should read as zero")
	}
}

func TestSetUintRoundTrip(t *testing.T) {
	c := MakeControl(80)
	c.SetUint(0, 16, 0xBEEF)
	c.SetUint(16, 1, 1)
	c.SetUint(17, 33, 0x1_2345_6789)
	if got := c.Uint(0, 16); got != 0xBEEF {
		t.Errorf("Uint(0,16) = %#x", got)
	}
	if got := c.Uint(16, 1); got != 1 {
		t.Errorf("Uint(16,1) = %d", got)
	}
	if got := c.Uint(17, 33); got != 0x1_2345_6789 {
		t.Errorf("Uint(17,33) = %#x", got)
	}
}

func TestSetUintQuick(t *testing.T) {
	f := func(v uint32, offRaw uint8) bool {
		off := int(offRaw % 40)
		c := MakeControl(off + 32)
		c.SetUint(off, 32, uint64(v))
		return c.Uint(off, 32) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUintAdjacentFieldsDoNotOverlap(t *testing.T) {
	c := MakeControl(64)
	c.SetUint(0, 10, 1023)
	c.SetUint(10, 10, 0)
	c.SetUint(20, 10, 777)
	if got := c.Uint(0, 10); got != 1023 {
		t.Errorf("field 0 = %d", got)
	}
	if got := c.Uint(10, 10); got != 0 {
		t.Errorf("field 1 = %d", got)
	}
	if got := c.Uint(20, 10); got != 777 {
		t.Errorf("field 2 = %d", got)
	}
}

func TestMessageKinds(t *testing.T) {
	p := Packet{ID: 1, Src: 0, Dest: 2, Injected: 5}
	pm := PacketMsg(p)
	if pm.IsLight() || !pm.HasPacket || pm.Packet.ID != 1 {
		t.Errorf("PacketMsg wrong: %+v", pm)
	}
	cm := CtrlMsg(MakeControl(4))
	if !cm.IsLight() || cm.HasPacket {
		t.Errorf("CtrlMsg wrong: %+v", cm)
	}
}

func TestFeedbackKindString(t *testing.T) {
	if FbSilence.String() != "silence" || FbHeard.String() != "heard" || FbCollision.String() != "collision" {
		t.Error("FeedbackKind strings wrong")
	}
	if FeedbackKind(9).String() != "FeedbackKind(9)" {
		t.Error("unknown FeedbackKind string wrong")
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{ID: 7, Src: 1, Dest: 3, Injected: 42}
	if got := p.String(); got != "pkt#7 1->3@42" {
		t.Errorf("Packet.String() = %q", got)
	}
}
