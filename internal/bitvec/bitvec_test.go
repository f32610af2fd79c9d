package bitvec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWordsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-3, 0}, {1, 1}, {20, 1}, {21, 1}, {22, 2}, {42, 2}, {43, 3}, {210, 10},
	}
	for _, c := range cases {
		if got := WordsFor(c.n); got != c.want {
			t.Errorf("WordsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSetGetGroup(t *testing.T) {
	const n = 100
	v := New(n)
	want := make([]uint8, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		want[i] = uint8(rng.Intn(8))
		v.SetGroup(i, want[i])
	}
	for i := 0; i < n; i++ {
		if got := v.Group(i); got != want[i] {
			t.Fatalf("Group(%d) = %d, want %d", i, got, want[i])
		}
	}
}

func TestSetGroupOverwrite(t *testing.T) {
	v := New(50)
	for i := 0; i < 50; i++ {
		v.SetGroup(i, 0b111)
	}
	v.SetGroup(25, 0b010)
	if got := v.Group(25); got != 0b010 {
		t.Fatalf("overwritten group = %b, want 010", got)
	}
	if got := v.Group(24); got != 0b111 {
		t.Fatalf("neighbor group disturbed: %b", got)
	}
	if got := v.Group(26); got != 0b111 {
		t.Fatalf("neighbor group disturbed: %b", got)
	}
}

func TestSetGroupMasksHighBits(t *testing.T) {
	v := New(4)
	v.SetGroup(2, 0xFF) // only low 3 bits must land
	if got := v.Group(2); got != 0b111 {
		t.Fatalf("Group = %b, want 111", got)
	}
	if got := v.Group(1); got != 0 {
		t.Fatalf("spill into neighbor: %b", got)
	}
	if got := v.Group(3); got != 0 {
		t.Fatalf("spill into neighbor: %b", got)
	}
}

func TestAndPopcountAndParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(130)
		a, b := New(n), New(n)
		want := 0
		for i := 0; i < n; i++ {
			ga, gb := uint8(rng.Intn(8)), uint8(rng.Intn(8))
			a.SetGroup(i, ga)
			b.SetGroup(i, gb)
			want += popcount3(ga & gb)
		}
		if got := AndPopcount(a, b); got != want {
			t.Fatalf("AndPopcount = %d, want %d", got, want)
		}
		if got := AndParity(a, b); got != (want%2 == 1) {
			t.Fatalf("AndParity = %v, want %v", got, want%2 == 1)
		}
	}
}

func popcount3(v uint8) int {
	n := 0
	for v != 0 {
		n += int(v & 1)
		v >>= 1
	}
	return n
}

func TestPopcountCloneEqual(t *testing.T) {
	v := New(30)
	v.SetGroup(0, 0b101)
	v.SetGroup(29, 0b111)
	if got := v.Popcount(); got != 5 {
		t.Fatalf("Popcount = %d, want 5", got)
	}
	c := v.Clone()
	if !Equal(v, c) {
		t.Fatal("clone not equal")
	}
	c.SetGroup(5, 0b001)
	if Equal(v, c) {
		t.Fatal("clone aliases original")
	}
	if Equal(v, New(60)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestAndParityMatchesPopcountQuick(t *testing.T) {
	f := func(aw, bw []uint64) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		a, b := Vec(aw[:n]), Vec(bw[:n])
		return AndParity(a, b) == (AndPopcount(a, b)%2 == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAndParitySymmetricQuick(t *testing.T) {
	f := func(aw, bw []uint64) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		a, b := Vec(aw[:n]), Vec(bw[:n])
		return AndParity(a, b) == AndParity(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndParity(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 64, 512} { // qubits: 1, 4, and 25 words
		a, c := New(n), New(n)
		for i := 0; i < n; i++ {
			a.SetGroup(i, uint8(rng.Intn(8)))
			c.SetGroup(i, uint8(rng.Intn(8)))
		}
		b.Run(fmt.Sprintf("qubits=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = AndParity(a, c)
			}
		})
	}
}

func TestBitsSetTestClear(t *testing.T) {
	b := NewBits(200)
	if len(b) != 4 {
		t.Fatalf("word count %d, want 4", len(b))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if b.Test(i) {
			t.Fatalf("fresh bitset has bit %d set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("bit 64 survived Clear")
	}
	if !b.Test(63) || !b.Test(65) {
		t.Fatal("Clear(64) disturbed neighboring bits")
	}
}

func TestBitsRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 513
	b := NewBits(n)
	ref := map[int]bool{}
	for op := 0; op < 5000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			b.Set(i)
			ref[i] = true
		case 1:
			b.Clear(i)
			delete(ref, i)
		default:
			if b.Test(i) != ref[i] {
				t.Fatalf("op %d: Test(%d) = %v, want %v", op, i, b.Test(i), ref[i])
			}
		}
	}
}

func TestBitsEmpty(t *testing.T) {
	if b := NewBits(0); b != nil {
		t.Fatalf("NewBits(0) = %v, want nil", b)
	}
	if got := NewBits(64); len(got) != 1 {
		t.Fatalf("NewBits(64) has %d words, want 1", len(got))
	}
}

func TestBitsDrain(t *testing.T) {
	const n = 1000
	b := NewBits(n)
	rng := rand.New(rand.NewSource(5))
	marked := map[int]bool{}
	for k := 0; k < 120; k++ {
		i := 130 + rng.Intn(700)
		b.Set(i)
		marked[i] = true
	}
	got := b.Drain(130, 829, []int32{-1})
	if got[0] != -1 {
		t.Fatal("Drain must append to dst, not overwrite it")
	}
	got = got[1:]
	if len(got) != len(marked) {
		t.Fatalf("drained %d indices, marked %d", len(got), len(marked))
	}
	for k, i := range got {
		if !marked[int(i)] {
			t.Fatalf("drained unmarked index %d", i)
		}
		if k > 0 && got[k-1] >= i {
			t.Fatalf("drain not ascending at %d: %d then %d", k, got[k-1], i)
		}
	}
	for _, w := range b {
		if w != 0 {
			t.Fatal("Drain left marked bits behind")
		}
	}
}
