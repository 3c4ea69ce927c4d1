package dram

// rank models rank-level constraints shared by all banks of a rank:
// ACT-to-ACT spacing (tRRD), the four-activate window (tFAW) and refresh.
type rank struct {
	banks []bank

	// nextACT is the earliest cycle any bank of this rank may activate
	// (tRRD from the previous ACT).
	nextACT int64
	// actWindow holds issue cycles of the most recent ACTs for the
	// tFAW sliding-window constraint.
	actWindow [4]int64
	actCount  int

	// nextRefresh is the cycle at which the next REFab is due.
	nextRefresh int64
}

// newRanks builds n ranks over one flat bank array indexed
// rank*banksPerRank+bank, which it also returns; each rank's banks is a
// window of it.
func newRanks(n, banksPerRank, trefi int) ([]rank, []bank) {
	banks := make([]bank, n*banksPerRank)
	for i := range banks {
		banks[i] = newBank()
	}
	ranks := make([]rank, n)
	for i := range ranks {
		lo, hi := i*banksPerRank, (i+1)*banksPerRank
		ranks[i] = rank{banks: banks[lo:hi:hi], nextRefresh: int64(trefi)}
	}
	return ranks, banks
}

// earliestACT returns the earliest cycle an ACT may issue on this rank.
// Both tRRD and tFAW are folded into nextACT by recordACT.
func (r *rank) earliestACT() int64 {
	return r.nextACT
}

// recordACT registers an ACT at cycle `at`, updating tRRD and tFAW state.
func (r *rank) recordACT(at int64, t *Timing) {
	r.nextACT = maxi64(r.nextACT, at+int64(t.TRRD))
	idx := r.actCount % 4
	// After four ACTs, the slot we are about to overwrite holds the
	// ACT four-back; tFAW says the next ACT after that one must wait.
	r.actWindow[idx] = at
	r.actCount++
	if r.actCount >= 4 {
		fourBack := r.actWindow[r.actCount%4]
		r.nextACT = maxi64(r.nextACT, fourBack+int64(t.TFAW))
	}
}

// refreshDue reports whether an all-bank refresh is due at cycle now.
func (r *rank) refreshDue(now int64) bool {
	return now >= r.nextRefresh
}

// applyRefresh performs REFab bookkeeping: all banks close and block for
// tRFCab; if any bank is active it is precharged first (tRP added).
// It returns the cycle at which the rank becomes usable again.
func (r *rank) applyRefresh(now int64, t *Timing) int64 {
	start := now
	for i := range r.banks {
		if r.banks[i].state == bankActive {
			// Implicit PREab before refresh.
			start = maxi64(start, r.banks[i].nextPRE)
		}
	}
	preDone := start
	anyActive := false
	for i := range r.banks {
		if r.banks[i].state == bankActive {
			anyActive = true
			r.banks[i].apply(CmdPRE, 0, start, t)
		}
	}
	if anyActive {
		preDone = start + int64(t.TRP)
	}
	for i := range r.banks {
		r.banks[i].apply(CmdREFab, 0, preDone, t)
	}
	r.nextRefresh += int64(t.TREFI)
	if r.nextRefresh <= preDone {
		r.nextRefresh = preDone + int64(t.TREFI)
	}
	return preDone + int64(t.TRFCab)
}
