package word

import (
	"testing"
	"testing/quick"
)

func TestAddrNil(t *testing.T) {
	if !NilAddr.IsNil() {
		t.Fatal("NilAddr must be nil")
	}
	if Addr(8).IsNil() {
		t.Fatal("nonzero address must not be nil")
	}
}

func TestAddrAligned(t *testing.T) {
	for _, a := range []Addr{0, 8, 16, 4096} {
		if !a.Aligned() {
			t.Errorf("%v should be aligned", a)
		}
	}
	for _, a := range []Addr{1, 7, 9, 4095} {
		if a.Aligned() {
			t.Errorf("%v should not be aligned", a)
		}
	}
}

func TestAddrPage(t *testing.T) {
	const ps = 1024
	cases := []struct {
		a    Addr
		want PageID
	}{
		{0, 0}, {1023, 0}, {1024, 1}, {2048, 2}, {3 * 1024 * 1024, 3 * 1024},
	}
	for _, c := range cases {
		if got := c.a.Page(ps); got != c.want {
			t.Errorf("Page(%v) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestPageBaseRoundTrip(t *testing.T) {
	const ps = 512
	f := func(p uint32) bool {
		id := PageID(p)
		base := id.Base(ps)
		return base.Page(ps) == id && base%ps == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrAdd(t *testing.T) {
	a := Addr(64)
	if a.Add(3) != 88 {
		t.Fatalf("Add(3) = %v, want 88", a.Add(3))
	}
	if a.Add(0) != a {
		t.Fatal("Add(0) must be identity")
	}
}

func TestWordRoundTrip(t *testing.T) {
	f := func(v uint64, pad uint8) bool {
		off := int(pad % 8)
		b := make([]byte, 16)
		PutWord(b, off, v)
		return GetWord(b, off) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordsBytesConversion(t *testing.T) {
	if WordsToBytes(3) != 24 {
		t.Fatal("WordsToBytes")
	}
	if BytesToWords(24) != 3 {
		t.Fatal("BytesToWords")
	}
}

func TestAddrString(t *testing.T) {
	if Addr(0x10).String() != "0x10" {
		t.Fatalf("got %q", Addr(0x10).String())
	}
}

func TestMovesTranslate(t *testing.T) {
	ms := Moves{{From: 0x100, To: 0x900, Words: 2}, {From: 0x200, To: 0x910, Words: 1}}
	for a, want := range map[Addr]Addr{
		0xf8:  0xf8,  // below every source
		0x100: 0x900, // first word of a source
		0x108: 0x908, // last word of it
		0x110: 0x110, // the gap between two sources
		0x200: 0x910, // a one-word source
		0x208: 0x208, // just past the last source
		0x900: 0x900, // a target is not a source
	} {
		if got := ms.Translate(a); got != want {
			t.Errorf("Translate(%v) = %v, want %v", a, got, want)
		}
	}
	if got := (Moves{}).Translate(0x100); got != 0x100 {
		t.Errorf("empty batch moved %v", got)
	}
}
