package dram

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// replaySpec is a four-channel LPDDR5 system, so replay tests exercise
// the per-channel queue bound on several channels at once.
func replaySpec(t testing.TB) Spec {
	spec, err := LPDDR5("replay test", 64, 6400, 2, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// replayStream generates perChannel requests for every channel of spec,
// interleaved round-robin so each channel's queue length is exact. Reads
// and writes mix, addresses alternate between row-local runs and random
// jumps, and arrivals jitter backwards as well as forwards.
func replayStream(spec *Spec, perChannel int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	g := spec.Geometry
	cols := g.ColumnsPerRow()
	reqs := make([]Request, perChannel*g.Channels)
	var base int64
	for i := range reqs {
		var a Addr
		a.Channel = i % g.Channels
		if rng.Intn(2) == 0 {
			a.Rank = rng.Intn(g.RanksPerChannel)
			a.Bank = rng.Intn(g.BanksPerRank)
			a.Row = rng.Intn(g.Rows)
			a.Column = rng.Intn(cols)
		} else {
			lin := i / g.Channels
			a.Column = lin % cols
			lin /= cols
			a.Bank = lin % g.BanksPerRank
			a.Rank = (lin / g.BanksPerRank) % g.RanksPerChannel
			a.Row = (lin / g.BanksPerRank / g.RanksPerChannel) % g.Rows
		}
		if rng.Intn(64) == 0 {
			base += int64(rng.Intn(3000))
		}
		arrival := base + int64(rng.Intn(200)) - 100
		if arrival < 0 {
			arrival = 0
		}
		reqs[i] = Request{Addr: a, Write: rng.Intn(3) == 0, Arrival: arrival, ID: int64(i)}
	}
	return reqs
}

// deepQueue runs reqs the way an unbounded replay would: every request
// queued on a fresh controller up front, then one Drain.
func deepQueue(t testing.TB, spec Spec, reqs []Request, window int) (int64, ChannelStats) {
	ctl, err := NewController(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Geometry.Channels; i++ {
		ctl.Channel(i).SetWindow(window)
	}
	for _, r := range reqs {
		if err := ctl.EnqueueValue(r); err != nil {
			t.Fatal(err)
		}
	}
	return ctl.Drain(), ctl.Stats()
}

// checkReplayDeepQueue asserts the bounded streaming replay schedules
// reqs exactly like the fully queued controller.
func checkReplayDeepQueue(t *testing.T, spec Spec, reqs []Request, window int) {
	t.Helper()
	res, err := MeasureStreamFuncWindow(spec, SliceSource(reqs), window)
	if err != nil {
		t.Fatal(err)
	}
	cycles, stats := deepQueue(t, spec, reqs, window)
	if res.Cycles != cycles {
		t.Fatalf("window %d, %d requests: replay completes at %d, deep queue at %d",
			window, len(reqs), res.Cycles, cycles)
	}
	if res.Stats != stats {
		t.Fatalf("window %d, %d requests: stats diverged\nreplay: %+v\ndeep:   %+v",
			window, len(reqs), res.Stats, stats)
	}
}

// TestReplayStreamMatchesDeepQueue pins the replay queue bound: draining
// a channel down to one window once it holds more than two must not move
// a single command, for streams shorter than, equal to and far longer
// than the bound.
func TestReplayStreamMatchesDeepQueue(t *testing.T) {
	spec := replaySpec(t)
	for _, w := range []int{1, 4, 32, 128} {
		for _, n := range []int{2*w - 1, 2 * w, 2*w + 1, 40 * w} {
			if n < 1 {
				continue
			}
			w, n := w, n
			t.Run(fmt.Sprintf("window=%d/per_channel=%d", w, n), func(t *testing.T) {
				checkReplayDeepQueue(t, spec, replayStream(&spec, n, int64(w*1000+n)), w)
			})
		}
	}
}

// FuzzReplayStreamDeepQueue checks the same equivalence on fuzz-chosen
// streams and windows.
func FuzzReplayStreamDeepQueue(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(3))
	f.Add(int64(7), uint8(1), uint16(8))
	f.Add(int64(42), uint8(2), uint16(500))
	f.Add(int64(9), uint8(3), uint16(257))
	f.Fuzz(func(t *testing.T, seed int64, windowSel uint8, perChannel uint16) {
		if perChannel == 0 || perChannel > 2048 {
			t.Skip()
		}
		spec := replaySpec(t)
		window := []int{1, 4, 32, 128}[int(windowSel)%4]
		checkReplayDeepQueue(t, spec, replayStream(&spec, int(perChannel), seed), window)
	})
}

// TestReplayStreamBoundedMemory enforces ReplayStream's memory claim: the
// bytes one replay allocates do not grow with the stream, so a 16x longer
// stream may cost at most a small fixed slack more.
func TestReplayStreamBoundedMemory(t *testing.T) {
	spec := replaySpec(t)
	g := spec.Geometry
	cols := g.ColumnsPerRow()
	replayBytes := func(n int) uint64 {
		best := ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			emitted := 0
			src := func(r *Request) bool {
				if emitted >= n {
					return false
				}
				lin := emitted / g.Channels
				*r = Request{
					Addr: Addr{
						Channel: emitted % g.Channels,
						Bank:    (lin / cols) % g.BanksPerRank,
						Rank:    (lin / cols / g.BanksPerRank) % g.RanksPerChannel,
						Row:     (lin / cols / g.BanksPerRank / g.RanksPerChannel) % g.Rows,
						Column:  lin % cols,
					},
					Write:   emitted%5 == 0,
					Arrival: int64(emitted / 8),
				}
				emitted++
				return true
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := ReplayStream(spec, src); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; b < best {
				best = b
			}
		}
		return best
	}
	const slack = 4 << 10
	small, large := replayBytes(1<<14), replayBytes(1<<18)
	if large > small+slack {
		t.Errorf("replay allocation grows with the stream: %d B for 2^14 requests, %d B for 2^18 (slack %d B)",
			small, large, slack)
	}
}
