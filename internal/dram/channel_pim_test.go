package dram

import "testing"

func TestAllBankACTMACPRECycle(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)

	act, err := ch.AllBankACT(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for col := 0; col < 64; col++ {
		at, err := ch.AllBankMAC(0, col, 4)
		if err != nil {
			t.Fatal(err)
		}
		if at <= last && col > 0 {
			t.Fatalf("MAC %d issued at %d, not after previous %d", col, at, last)
		}
		last = at
	}
	if last < act+int64(spec.Timing.TRCD) {
		t.Errorf("first MAC before tRCD after ACT")
	}
	// MAC cadence: 64 MACs spaced >= 4 cycles.
	if got := last - act; got < 63*4 {
		t.Errorf("MAC stream took %d cycles, want >= %d", got, 63*4)
	}
	if _, err := ch.AllBankPRE(0); err != nil {
		t.Fatal(err)
	}
	// Next activation must respect tRP.
	act2, err := ch.AllBankACT(0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if act2 <= last {
		t.Errorf("re-activation at %d not after MAC stream end %d", act2, last)
	}
}

// TestAllBankMACMatchesPerBankApply pins the lock-step AllBankMAC to the
// per-bank rule it folds: the MAC issues at the latest bank's earliest
// column cycle, and every bank then takes bank.apply(CmdMACab). SoC
// traffic runs first so banks enter PIM mode with unequal timing state.
func TestAllBankMACMatchesPerBankApply(t *testing.T) {
	spec := smallSpec()
	ranks := spec.Geometry.RanksPerChannel
	for _, dual := range []bool{false, true} {
		ch := NewChannel(&spec)
		ch.SetRowPolicy(CloseRow)
		ch.SetDualRowBuffer(dual)
		for _, r := range diffStream(&spec, "random", 500, 3) {
			if err := ch.EnqueueValue(r); err != nil {
				t.Fatal(err)
			}
		}
		ch.Drain()
		for i := 0; i < 300; i++ {
			rk := i % ranks
			if i%(40*ranks) < ranks { // open a new row every 40 MACs
				if _, err := ch.AllBankPRE(rk); err != nil {
					t.Fatal(err)
				}
				if _, err := ch.AllBankACT(rk, i); err != nil {
					t.Fatal(err)
				}
			}
			want := append([]bank(nil), ch.pimRank(rk).banks...)
			at := maxi64(ch.cmdBusFree, ch.nextMAC[rk])
			for j := range want {
				e, legal := want[j].earliest(CmdRD, want[j].openRow)
				if !legal {
					t.Fatalf("dual=%v MAC %d: bank %d cannot read its open row", dual, i, j)
				}
				at = maxi64(at, e)
			}
			for j := range want {
				want[j].apply(CmdMACab, want[j].openRow, at, ch.t)
			}
			got, err := ch.AllBankMAC(rk, i, 1+i%5)
			if err != nil {
				t.Fatal(err)
			}
			if got != at {
				t.Fatalf("dual=%v MAC %d issued at %d, per-bank rule gives %d", dual, i, got, at)
			}
			for j, b := range ch.pimRank(rk).banks {
				if b != want[j] {
					t.Fatalf("dual=%v MAC %d bank %d: got %+v, want %+v", dual, i, j, b, want[j])
				}
			}
		}
	}
}

func TestAllBankMACRequiresOpenRow(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	if _, err := ch.AllBankMAC(0, 0, 1); err == nil {
		t.Fatal("MAC on precharged bank accepted")
	}
}

func TestAllBankACTRequiresPrecharge(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	if _, err := ch.AllBankACT(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.AllBankACT(0, 1); err == nil {
		t.Fatal("double activation accepted")
	}
}

func TestAllBankBadArgs(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	if _, err := ch.AllBankACT(9, 0); err == nil {
		t.Error("bad rank accepted in AllBankACT")
	}
	if _, err := ch.AllBankACT(0, -1); err == nil {
		t.Error("bad row accepted in AllBankACT")
	}
	if _, err := ch.AllBankPRE(7); err == nil {
		t.Error("bad rank accepted in AllBankPRE")
	}
	if _, err := ch.AllBankMAC(7, 0, 1); err == nil {
		t.Error("bad rank accepted in AllBankMAC")
	}
	if _, err := ch.WriteGlobalBuffer(7, 1); err == nil {
		t.Error("bad rank accepted in WriteGlobalBuffer")
	}
	if _, err := ch.ReadMACResults(7, 1); err == nil {
		t.Error("bad rank accepted in ReadMACResults")
	}
}

func TestGlobalBufferTransfersUseDataBus(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	done, err := ch.WriteGlobalBuffer(0, 64) // 2 KB input segment
	if err != nil {
		t.Fatal(err)
	}
	if done < 64 {
		t.Errorf("64 bursts done at cycle %d, must be >= 64", done)
	}
	s := ch.Stats()
	if s.Writes != 64 {
		t.Errorf("Writes = %d, want 64", s.Writes)
	}
	done2, err := ch.ReadMACResults(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if done2 <= done-int64(spec.Timing.CWL) {
		t.Errorf("RDMAC overlapped WRGB: %d <= %d", done2, done)
	}
}

func TestMACDoesNotUseDataBus(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	if _, err := ch.AllBankACT(0, 0); err != nil {
		t.Fatal(err)
	}
	before := ch.Stats().DataBusCycles
	for i := 0; i < 10; i++ {
		if _, err := ch.AllBankMAC(0, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := ch.Stats().DataBusCycles; got != before {
		t.Errorf("MAC consumed %d data-bus cycles, want 0", got-before)
	}
}

func TestAdvanceToMonotone(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	ch.AdvanceTo(500)
	if ch.Now() != 500 {
		t.Errorf("Now = %d after AdvanceTo(500)", ch.Now())
	}
	ch.AdvanceTo(100) // must not go backwards
	if ch.Now() != 500 {
		t.Errorf("AdvanceTo moved clock backwards to %d", ch.Now())
	}
}

func TestMACIntervalGovernsThroughput(t *testing.T) {
	spec := smallSpec()
	run := func(interval int) int64 {
		ch := NewChannel(&spec)
		ch.SetRefreshEnabled(false)
		if _, err := ch.AllBankACT(0, 0); err != nil {
			t.Fatal(err)
		}
		var last int64
		for i := 0; i < 64; i++ {
			at, err := ch.AllBankMAC(0, i, interval)
			if err != nil {
				t.Fatal(err)
			}
			last = at
		}
		return last
	}
	fast := run(1)
	slow := run(8)
	if slow < fast*4 {
		t.Errorf("interval 8 stream (%d) not ~8x slower than interval 1 (%d)", slow, fast)
	}
}
