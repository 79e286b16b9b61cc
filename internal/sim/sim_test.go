package sim

import (
	"testing"

	"offchip/internal/layout"
	"offchip/internal/noc"
	"offchip/internal/probe"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	m := layout.Machine{
		MeshX: 4, MeshY: 4,
		NumMCs:     4,
		LineBytes:  64,
		PageBytes:  512,
		L2:         layout.PrivateL2,
		Interleave: layout.LineInterleave,
	}
	cm, err := layout.MappingM1(m, layout.PlacementCorners(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m, cm)
	cfg.L1Bytes = 1024
	cfg.L2Bytes = 4096
	return cfg
}

func oneAccess(core int, vaddr int64) *Workload {
	return &Workload{
		Name:    "one",
		Streams: []Stream{{Core: core, Accesses: []Access{{VAddr: vaddr, DesiredMC: -1}}}},
	}
}

func TestSingleColdMissLatency(t *testing.T) {
	cfg := testConfig(t)
	r, err := Run(cfg, oneAccess(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 at (0,0); line 0 maps to MC0 at (0,0): zero network hops.
	// L1 (2) + L2 (10) + directory (4) + closed-bank DRAM (40) = 56.
	want := cfg.L1Latency + cfg.L2Latency + cfg.DirLatency + cfg.DRAM.TRowMiss
	if r.ExecTime != want {
		t.Errorf("ExecTime = %d, want %d", r.ExecTime, want)
	}
	if r.OffChip != 1 || r.Total != 1 || r.L1Hits != 0 {
		t.Errorf("counts: offchip=%d total=%d l1=%d", r.OffChip, r.Total, r.L1Hits)
	}
	if r.AccessMap[0][0] != 1 {
		t.Errorf("AccessMap[0][0] = %d", r.AccessMap[0][0])
	}
	if r.OffChipShare() != 1 {
		t.Errorf("OffChipShare = %v", r.OffChipShare())
	}
}

func TestL1HitAfterFill(t *testing.T) {
	cfg := testConfig(t)
	w := &Workload{Streams: []Stream{{
		Core:     0,
		Accesses: []Access{{VAddr: 0, DesiredMC: -1}, {VAddr: 8, DesiredMC: -1}},
	}}}
	// MLP 1 so the second access starts after the fill completes.
	cfg.MLPWindow = 1
	r, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.L1Hits != 1 {
		t.Errorf("L1Hits = %d, want 1 (same line)", r.L1Hits)
	}
	if r.OffChip != 1 {
		t.Errorf("OffChip = %d", r.OffChip)
	}
}

func TestRemoteL2Transfer(t *testing.T) {
	cfg := testConfig(t)
	cfg.MLPWindow = 1
	w := &Workload{Streams: []Stream{
		{Core: 0, Accesses: []Access{{VAddr: 0, DesiredMC: -1}}},
		// Core 5 touches the same line much later (its stream is issued
		// independently, but the directory peek at processing time finds
		// core 0's copy).
		{Core: 5, Accesses: []Access{{VAddr: 0, DesiredMC: -1}, {VAddr: 0, DesiredMC: -1}}},
	}}
	r, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.OffChip+r.OnChipRemote+r.L1Hits+r.L2LocalHits != 3 {
		t.Errorf("categories don't sum: %+v", r)
	}
	if r.OnChipRemote < 1 {
		t.Errorf("OnChipRemote = %d, want >= 1 (cache-to-cache transfer)", r.OnChipRemote)
	}
	if r.NetMsgs[noc.OnChip] < 3 {
		t.Errorf("on-chip messages = %d, want >= 3 (request+forward+data)", r.NetMsgs[noc.OnChip])
	}
}

func TestSharedL2Flow(t *testing.T) {
	cfg := testConfig(t)
	cfg.Machine.L2 = layout.SharedL2
	// vaddr chosen so its home bank is core 5: line 5.
	vaddr := int64(5 * 64)
	r, err := Run(cfg, oneAccess(0, vaddr))
	if err != nil {
		t.Fatal(err)
	}
	if r.OffChip != 1 {
		t.Errorf("OffChip = %d", r.OffChip)
	}
	// Path 1 (L1→home) + path 5 (home→L1) on-chip; paths 2 and 4 off-chip.
	if r.NetMsgs[noc.OnChip] != 2 || r.NetMsgs[noc.OffChip] != 2 {
		t.Errorf("messages: on=%d off=%d, want 2/2", r.NetMsgs[noc.OnChip], r.NetMsgs[noc.OffChip])
	}
	// The off-chip request is attributed to the home node, not the core.
	if r.AccessMap[5][1] != 1 { // line 5 → MC 5%4=1
		t.Errorf("AccessMap home/MC wrong: %v", r.AccessMap)
	}

	// A second run with a second access from another core hits the home
	// bank on-chip.
	w := &Workload{Streams: []Stream{
		{Core: 0, Accesses: []Access{{VAddr: vaddr, DesiredMC: -1}}},
		{Core: 9, Accesses: []Access{{VAddr: vaddr, DesiredMC: -1}, {VAddr: vaddr, DesiredMC: -1}}},
	}}
	cfg.MLPWindow = 1
	r2, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r2.L2LocalHits < 1 {
		t.Errorf("home-bank hits = %d, want >= 1", r2.L2LocalHits)
	}
}

func TestOptimalSchemeUsesNearestMC(t *testing.T) {
	cfg := testConfig(t)
	cfg.OptimalOffchip = true
	// Core 15 at (3,3): nearest MC is MC3 (corner (3,3)), but the line of
	// vaddr 0 belongs to MC0. The optimal scheme must go to MC3.
	r, err := Run(cfg, oneAccess(15, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.AccessMap[15][3] != 1 {
		t.Errorf("optimal scheme AccessMap = %v", r.AccessMap[15])
	}
	// No queueing: memory latency is exactly one row hit.
	if r.MemLatency != cfg.DRAM.TRowHit || r.MemServed != 1 {
		t.Errorf("optimal mem latency = %d/%d", r.MemLatency, r.MemServed)
	}
	// Zero hops to the corner MC at the core's own node.
	if r.NetHops[noc.OffChip] != 0 {
		t.Errorf("off-chip hops = %d", r.NetHops[noc.OffChip])
	}
}

func TestOptimalFasterThanDefault(t *testing.T) {
	cfg := testConfig(t)
	// A burst of far accesses from one corner core to the far MC.
	var accs []Access
	for i := int64(0); i < 64; i++ {
		// All lines map to MC3 ((3,3)), requested from core 0 ((0,0)).
		accs = append(accs, Access{VAddr: i*64*4 + 3*64, DesiredMC: -1})
	}
	w := &Workload{Streams: []Stream{{Core: 0, Accesses: accs}}}
	base, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OptimalOffchip = true
	opt, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if opt.ExecTime >= base.ExecTime {
		t.Errorf("optimal %d >= baseline %d", opt.ExecTime, base.ExecTime)
	}
	if opt.AvgNetLatency(noc.OffChip) >= base.AvgNetLatency(noc.OffChip) {
		t.Errorf("optimal off-chip net latency %.1f >= baseline %.1f",
			opt.AvgNetLatency(noc.OffChip), base.AvgNetLatency(noc.OffChip))
	}
}

func TestMLPWindowOverlapsMisses(t *testing.T) {
	cfg := testConfig(t)
	var accs []Access
	for i := int64(0); i < 8; i++ {
		accs = append(accs, Access{VAddr: i * 64 * 4, DesiredMC: -1}) // all MC0, different rows? same bank
	}
	w := &Workload{Streams: []Stream{{Core: 0, Accesses: accs}}}
	cfg.MLPWindow = 1
	serial, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MLPWindow = 8
	parallel, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.ExecTime >= serial.ExecTime {
		t.Errorf("MLP 8 time %d >= MLP 1 time %d", parallel.ExecTime, serial.ExecTime)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(t)
	var streams []Stream
	for c := 0; c < 16; c++ {
		var accs []Access
		for i := int64(0); i < 50; i++ {
			accs = append(accs, Access{VAddr: (int64(c)*977 + i*131) % 8192 * 8, DesiredMC: -1})
		}
		streams = append(streams, Stream{Core: c, Accesses: accs})
	}
	w := &Workload{Streams: streams}
	r1, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecTime != r2.ExecTime || r1.OffChip != r2.OffChip ||
		r1.NetLatency != r2.NetLatency || r1.MemLatency != r2.MemLatency {
		t.Errorf("nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestMultiprogrammedIsolation(t *testing.T) {
	cfg := testConfig(t)
	w := &Workload{Streams: []Stream{
		{Core: 0, AppID: 0, Accesses: []Access{{VAddr: 0, DesiredMC: -1}}},
		{Core: 0, AppID: 1, Accesses: []Access{{VAddr: 0, DesiredMC: -1}}},
	}}
	r, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// Same vaddr, different apps: both must miss (no phantom sharing).
	if r.OffChip != 2 {
		t.Errorf("OffChip = %d, want 2 (isolated address spaces)", r.OffChip)
	}
	if len(r.AppExecTime) != 2 {
		t.Errorf("AppExecTime = %v", r.AppExecTime)
	}
}

func TestOSAssistedPolicyRoutesToDesiredMC(t *testing.T) {
	cfg := testConfig(t)
	cfg.Machine.Interleave = layout.PageInterleave
	cfg.Policy = PolicyOSAssisted
	w := &Workload{Streams: []Stream{{
		Core:     0,
		Accesses: []Access{{VAddr: 0, DesiredMC: 2}},
	}}}
	r, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.AccessMap[0][2] != 1 {
		t.Errorf("desired MC ignored: %v", r.AccessMap[0])
	}
}

func TestFirstTouchPolicyUsesClusterMC(t *testing.T) {
	cfg := testConfig(t)
	cfg.Machine.Interleave = layout.PageInterleave
	cfg.Policy = PolicyFirstTouch
	// Core 15 is in cluster 3: its pages come from MC3.
	r, err := Run(cfg, oneAccess(15, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.AccessMap[15][3] != 1 {
		t.Errorf("first touch map: %v", r.AccessMap[15])
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Mapping = nil
	if _, err := Run(cfg, oneAccess(0, 0)); err == nil {
		t.Error("nil mapping accepted")
	}
	cfg = testConfig(t)
	cfg.MLPWindow = 0
	if _, err := Run(cfg, oneAccess(0, 0)); err == nil {
		t.Error("zero MLP accepted")
	}
	cfg = testConfig(t)
	if _, err := Run(cfg, oneAccess(99, 0)); err == nil {
		t.Error("out-of-range core accepted")
	}
}

// TestCacheGeometryValidation checks that a cache capacity that is not a
// whole number of sets is a configuration error naming the cache and its
// geometry, which Run returns before it builds a cache.
func TestCacheGeometryValidation(t *testing.T) {
	for _, tc := range []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.L2Bytes = 1000 }, "sim: L2 cache geometry 1000B/64B/16-way: capacity is not a whole number of 1024B sets"},
		{func(c *Config) { c.L1Bytes = 1 << 6 }, "sim: L1 cache geometry 64B/64B/2-way: capacity is not a whole number of 128B sets"},
		{func(c *Config) { c.L1Ways = 0 }, "sim: L1 cache geometry 1024B/64B/0-way: sizes must be positive"},
		{func(c *Config) { c.L2Bytes = 3 << 10; c.L2Ways = 3 }, ""},
	} {
		cfg := testConfig(t)
		tc.edit(&cfg)
		got := ""
		if err := cfg.Validate(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("Validate() = %q, want %q", got, tc.want)
		}
		if _, err := Run(cfg, oneAccess(0, 0)); (err != nil) != (tc.want != "") {
			t.Errorf("Run with %q: err = %v", tc.want, err)
		}
	}
}

func TestWorkloadTotalAccesses(t *testing.T) {
	w := &Workload{Streams: []Stream{
		{Core: 0, Accesses: make([]Access, 3)},
		{Core: 1, Accesses: make([]Access, 5)},
	}}
	if w.TotalAccesses() != 8 {
		t.Errorf("TotalAccesses = %d", w.TotalAccesses())
	}
}

func TestQueueOccupancyPositiveUnderLoad(t *testing.T) {
	cfg := testConfig(t)
	var accs []Access
	for i := int64(0); i < 100; i++ {
		accs = append(accs, Access{VAddr: i * 256 * 4, DesiredMC: -1}) // all MC0
	}
	w := &Workload{Streams: []Stream{{Core: 0, Accesses: accs}}}
	cfg.MLPWindow = 16
	r, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.QueueOcc[0] <= 0 {
		t.Errorf("MC0 queue occupancy = %v under heavy load", r.QueueOcc[0])
	}
	if r.AvgQueueOcc <= 0 {
		t.Errorf("avg queue occupancy = %v", r.AvgQueueOcc)
	}
}

func TestStartStaggerNotCountedWhenIdle(t *testing.T) {
	// Idle cores' start events must not inflate ExecTime: a single stream
	// on core 0 finishes long before core 15's stagger tick.
	cfg := testConfig(t)
	cfg.StartStagger = 1000
	r, err := Run(cfg, oneAccess(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecTime >= 1000 {
		t.Errorf("ExecTime %d includes idle stagger events", r.ExecTime)
	}
}

func TestGapJitterDeterministic(t *testing.T) {
	cfg := testConfig(t)
	cfg.GapJitter = 16
	w := &Workload{Streams: []Stream{{Core: 3, Accesses: []Access{
		{VAddr: 0, DesiredMC: -1}, {VAddr: 4096, DesiredMC: -1}, {VAddr: 8192, DesiredMC: -1},
	}}}}
	r1, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecTime != r2.ExecTime {
		t.Errorf("jitter nondeterministic: %d vs %d", r1.ExecTime, r2.ExecTime)
	}
	// Different cores see different jitter sequences.
	w2 := &Workload{Streams: []Stream{{Core: 5, Accesses: w.Streams[0].Accesses}}}
	r3, err := Run(cfg, w2)
	if err != nil {
		t.Fatal(err)
	}
	_ = r3 // may or may not differ; the property under test is determinism
}

func TestSharedL2OptimalScheme(t *testing.T) {
	cfg := testConfig(t)
	cfg.Machine.L2 = layout.SharedL2
	cfg.OptimalOffchip = true
	// Home bank of vaddr 0 is core 0 at (0,0); its nearest MC is MC0.
	r, err := Run(cfg, oneAccess(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.AccessMap[0][0] != 1 {
		t.Errorf("shared optimal AccessMap = %v", r.AccessMap[0])
	}
	if r.MemLatency != cfg.DRAM.TRowHit {
		t.Errorf("optimal mem latency = %d", r.MemLatency)
	}
}

// submitLog is a probe consumer that records the controller-local address
// of every request submitted to controller 0.
type submitLog struct{ mc0 []int64 }

func (l *submitLog) Begin(int64, int, int64) {}
func (l *submitLog) End(int64, int64)        {}
func (l *submitLog) Migrate(probe.Migration) {}
func (l *submitLog) Finish(probe.Totals)     {}
func (l *submitLog) Stage(_ int64, s probe.Stage) {
	if s.Kind == probe.DRAMSubmit && s.MC == 0 {
		l.mc0 = append(l.mc0, s.Local)
	}
}

// TestDebugMC0Hook observes controller 0's submissions through the probe
// stream's DRAM-submit stage.
func TestDebugMC0Hook(t *testing.T) {
	cfg := testConfig(t)
	var log submitLog
	if _, err := run(cfg, oneAccess(0, 0), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.mc0) != 1 {
		t.Errorf("stream reported %d submissions to mc0, want 1", len(log.mc0))
	}
}

func TestLocalAddressCompaction(t *testing.T) {
	// Two consecutive units of MC0's stripe must be contiguous in the
	// controller's local address space (so they share a DRAM row).
	cfg := testConfig(t)
	unit := cfg.Machine.LineUnit()
	stripe := unit * int64(cfg.Machine.NumMCs)
	w := &Workload{Streams: []Stream{{Core: 0, Accesses: []Access{
		{VAddr: 0, DesiredMC: -1},
		{VAddr: stripe, DesiredMC: -1}, // next MC0 unit
	}}}}
	cfg.MLPWindow = 1
	var log submitLog
	if _, err := run(cfg, w, &log); err != nil {
		t.Fatal(err)
	}
	seen := log.mc0
	if len(seen) != 2 {
		t.Fatalf("submissions = %v", seen)
	}
	if seen[1]-seen[0] != unit {
		t.Errorf("local addresses %v not compacted (want gap %d)", seen, unit)
	}
}
