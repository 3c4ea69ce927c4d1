package vm

import (
	"math/rand"
	"testing"
)

// checkRegionCounts asserts the per-region free counters against the
// frame-scan oracle: each region's counter equals FreeInRegion over the
// region, and the counters sum to FreeFrames.
func checkRegionCounts(tb testing.TB, b *Buddy, step int) {
	tb.Helper()
	var sum int64
	for r, got := range b.regionFree {
		if want := b.FreeInRegion(r*FramesPerHugePage, FramesPerHugePage); int(got) != want {
			tb.Fatalf("step %d: region %d counter %d, frame scan %d", step, r, got, want)
		}
		sum += int64(got)
	}
	if sum != b.FreeFrames() {
		tb.Fatalf("step %d: region counters sum to %d, FreeFrames %d", step, sum, b.FreeFrames())
	}
}

// runRegionOps applies one byte-coded operation per step — Alloc, Free of
// a held block, AllocHugePage (compacting when needed) or
// SynthesizeFragmentation — and checks the region counters after each.
// Operations may fail (out of memory, a held block already reclaimed by
// compaction); a failed operation must leave the counters consistent too.
func runRegionOps(tb testing.TB, b *Buddy, ops []byte) {
	rng := rand.New(rand.NewSource(int64(len(ops))))
	var held [][2]int // (start, order) of allocated blocks
	cursor := 0
	for i, op := range ops {
		arg := int(op >> 2)
		switch op % 4 {
		case 0:
			order := arg % (b.maxOrder + 1)
			if s, err := b.Alloc(order); err == nil {
				held = append(held, [2]int{s, order})
			}
		case 1:
			if len(held) > 0 {
				j := arg % len(held)
				_ = b.Free(held[j][0], held[j][1])
				held = append(held[:j], held[j+1:]...)
			}
		case 2:
			if s, _, err := b.AllocHugePage(&cursor, arg%8); err == nil {
				held = append(held, [2]int{s, HugeOrder})
			}
		case 3:
			free := int64(arg) * int64(b.Frames()) / 63
			held = held[:0]
			_ = SynthesizeFragmentation(b, free, float64(arg%11)/10, rng)
		}
		checkRegionCounts(tb, b, i)
	}
}

// regionCases cover a whole number of regions, a partial last region,
// blocks spanning several regions (maxOrder above HugeOrder) and a
// maxOrder below HugeOrder.
var regionCases = []struct{ frames, maxOrder int }{
	{4096, 0},
	{4*FramesPerHugePage + 300, HugeOrder + 2},
	{2*FramesPerHugePage + 37, HugeOrder},
	{8*FramesPerHugePage + 1, HugeOrder + 3},
	{700, 5},
}

func TestRegionFreeMatchesScan(t *testing.T) {
	for _, tc := range regionCases {
		b, err := NewBuddy(tc.frames, tc.maxOrder)
		if err != nil {
			t.Fatal(err)
		}
		checkRegionCounts(t, b, -1)
		rng := rand.New(rand.NewSource(int64(tc.frames)))
		ops := make([]byte, 600)
		rng.Read(ops)
		runRegionOps(t, b, ops)

		// A tab1-style load: fragment heavily, then take huge pages
		// until memory runs out, compacting along the way.
		if err := SynthesizeFragmentation(b, int64(tc.frames)*6/10, 0.75, rng); err != nil {
			continue
		}
		checkRegionCounts(t, b, -1)
		cursor := 0
		for i := 0; ; i++ {
			_, _, err := b.AllocHugePage(&cursor, 4)
			checkRegionCounts(t, b, i)
			if err != nil {
				break
			}
		}
	}
}

func FuzzBuddyRegionCounts(f *testing.F) {
	f.Add(uint16(4*FramesPerHugePage+300), uint8(HugeOrder+2), []byte{3 | 40<<2, 2, 2, 2, 1, 0 | 9<<2, 1, 2})
	f.Add(uint16(4096), uint8(HugeOrder), []byte{0, 4, 8, 1, 1, 3 | 63<<2, 2 | 3<<2})
	f.Add(uint16(700), uint8(5), []byte{0 | 5<<2, 3 | 20<<2, 1, 0})
	f.Fuzz(func(t *testing.T, frames uint16, maxOrder uint8, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		b, err := NewBuddy(1+int(frames)%(16*FramesPerHugePage), 1+int(maxOrder)%(HugeOrder+4))
		if err != nil {
			t.Fatal(err)
		}
		runRegionOps(t, b, ops)
	})
}

// BenchmarkCompactHugePage times one compacting AllocHugePage on the
// buddy state of Table I's worst cell at its default 1/8 scale: free
// memory 1.1x the 16.2 GB model, fragmented to FMFI 0.7-0.8. The huge
// pages available without compaction are taken untimed, so every timed
// op compacts; the state is rebuilt (untimed) when the load completes.
func BenchmarkCompactHugePage(b *testing.B) {
	const (
		model = (16200 << 20) / 8
		total = (64 << 30) / 8
		pages = (model + HugePageBytes - 1) / HugePageBytes
	)
	scanWindow := DefaultLoadModelConfig().ScanWindow
	var (
		buddy        *Buddy
		cursor, left int
	)
	setup := func() {
		var err error
		if buddy, err = NewBuddy(total/BasePageBytes, 0); err != nil {
			b.Fatal(err)
		}
		free := int64(1.1*float64(model)) / BasePageBytes
		if err := SynthesizeFragmentation(buddy, free, 0.75, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
		cursor, left = 0, pages
		for left > 0 {
			if _, err := buddy.Alloc(HugeOrder); err != nil {
				break
			}
			left--
		}
	}
	setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			b.StopTimer()
			setup()
			b.StartTimer()
		}
		if _, moved, err := buddy.AllocHugePage(&cursor, scanWindow); err != nil || moved == 0 {
			b.Fatalf("op %d: moved %d frames, err %v", i, moved, err)
		}
		left--
	}
}
