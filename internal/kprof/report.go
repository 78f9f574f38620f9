package kprof

// Report is the folded, derived view of a Profile: the Amdahl-style
// speedup attribution for one profiled run. Build one with
// Profile.Report after the run completes.
type Report struct {
	Shards int    `json:"shards"`
	Runs   uint64 `json:"runs"`
	Rounds uint64 `json:"rounds"`
	Waves  uint64 `json:"waves"`
	Events uint64 `json:"events"`

	// Wall-clock decomposition, ns. Wall = Phase + Replay + Rebind +
	// Other (coordinator bookkeeping: heap peeks, channel dispatch,
	// budget checks).
	WallNs   int64 `json:"wall_ns"`
	PhaseNs  int64 `json:"phase_ns"`
	ReplayNs int64 `json:"replay_ns"`
	RebindNs int64 `json:"rebind_ns"`
	OtherNs  int64 `json:"other_ns"`

	// CriticalNs is the per-wave max lane busy time, summed: the
	// parallel phase's lower bound if coordination were free.
	CriticalNs int64 `json:"critical_ns"`

	// Replay decomposition. MergeNs is the k-way merge loop proper
	// (Replay minus the attributed actions below).
	MergeNs      int64  `json:"merge_ns"`
	SendNs       int64  `json:"send_ns"`
	SendCount    uint64 `json:"send_count"`
	GlobalOpNs   int64  `json:"global_op_ns"`
	GlobalOpCnt  uint64 `json:"global_op_count"`
	GlobalEvNs   int64  `json:"global_ev_ns"`
	GlobalEvCnt  uint64 `json:"global_ev_count"`
	BindCount    uint64 `json:"bind_count"`
	RelHomeCount uint64 `json:"rel_home_count"`

	Lanes        []LaneAcc `json:"lanes"`
	WaveWidth    Hist      `json:"wave_width"`
	BarrierStall Hist      `json:"barrier_stall_ns"`

	// Derived attribution.
	//
	// SerialFraction: share of wall time that is inherently
	// single-threaded (replay + rebind + other coordinator work).
	SerialFraction float64 `json:"serial_fraction"`
	// CoordOverhead: share of wall time in explicit coordination
	// (replay + rebind) — the price of the deferred cross-lane model.
	CoordOverhead float64 `json:"coord_overhead"`
	// ImbalanceFactor: critical-lane time over mean lane busy time;
	// 1.0 = perfectly balanced waves, 2.0 = the slowest lane does 2x
	// the average work each wave.
	ImbalanceFactor float64 `json:"imbalance_factor"`
	// ParallelEfficiency: total lane busy over shards x phase wall —
	// how much of the parallel section's capacity did useful work.
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	// AmdahlSpeedupBound: 1/(s + (1-s)/S) for s = SerialFraction —
	// the speedup ceiling this serial fraction allows at this shard
	// count, independent of load balance.
	AmdahlSpeedupBound float64 `json:"amdahl_speedup_bound"`
}

// Report folds the profile into its derived view. Call after the
// profiled run returns.
func (p *Profile) Report() *Report {
	r := &Report{
		Shards: p.shards, Runs: p.runs, Rounds: p.rounds, Waves: p.waves,
		Events: p.executed,
		WallNs: p.wallNs, PhaseNs: p.phaseNs, ReplayNs: p.replayNs, RebindNs: p.rebindNs,
		CriticalNs: p.criticalNs,
		SendNs:     p.sendNs, SendCount: p.sendCount,
		GlobalOpNs: p.globalOpNs, GlobalOpCnt: p.globalOpCnt,
		GlobalEvNs: p.globalEvNs, GlobalEvCnt: p.globalEvCnt,
		BindCount: p.bindCount, RelHomeCount: p.relHomeCount,
		Lanes:        append([]LaneAcc(nil), p.lanes...),
		WaveWidth:    p.waveWidth,
		BarrierStall: p.stall,
	}
	r.OtherNs = r.WallNs - r.PhaseNs - r.ReplayNs - r.RebindNs
	if r.OtherNs < 0 {
		r.OtherNs = 0
	}
	r.MergeNs = r.ReplayNs - r.SendNs - r.GlobalOpNs - r.GlobalEvNs
	if r.MergeNs < 0 {
		r.MergeNs = 0
	}
	var totalBusy int64
	for i := range r.Lanes {
		totalBusy += r.Lanes[i].BusyNs
	}
	if r.WallNs > 0 {
		r.SerialFraction = float64(r.ReplayNs+r.RebindNs+r.OtherNs) / float64(r.WallNs)
		r.CoordOverhead = float64(r.ReplayNs+r.RebindNs) / float64(r.WallNs)
	}
	if totalBusy > 0 && r.Shards > 0 {
		mean := float64(totalBusy) / float64(r.Shards)
		r.ImbalanceFactor = float64(r.CriticalNs) / mean
	}
	if r.PhaseNs > 0 && r.Shards > 0 {
		r.ParallelEfficiency = float64(totalBusy) / (float64(r.Shards) * float64(r.PhaseNs))
	}
	if s := r.SerialFraction; r.Shards > 0 && s >= 0 && s <= 1 {
		r.AmdahlSpeedupBound = 1 / (s + (1-s)/float64(r.Shards))
	}
	return r
}
