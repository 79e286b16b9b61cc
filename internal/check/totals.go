package check

import (
	"fmt"

	"offchip/internal/probe"
)

// VerifyTotals checks the conservation identities on a drained run and
// returns one violation per broken identity (nil when clean). It subsumes
// the bespoke assertions the old internal/sim conservation tests carried.
func VerifyTotals(tot probe.Totals) []Violation {
	var vs []Violation
	badf := func(format string, args ...any) {
		vs = append(vs, Violation{Probe: "conservation", Msg: fmt.Sprintf(format, args...)})
	}
	if tot.Injected != tot.TraceAccesses {
		badf("injected %d of %d trace accesses", tot.Injected, tot.TraceAccesses)
	}
	if tot.Completed != tot.Injected {
		badf("completed %d of %d injected accesses (events lost or duplicated)",
			tot.Completed, tot.Injected)
	}
	if sum := tot.L1Hits + tot.L2LocalHits + tot.OnChipRemote + tot.OffChip; sum != tot.Injected {
		badf("outcomes don't partition: l1=%d l2=%d remote=%d offchip=%d sum=%d total=%d",
			tot.L1Hits, tot.L2LocalHits, tot.OnChipRemote, tot.OffChip, sum, tot.Injected)
	}
	if tot.Optimal {
		// The optimal scheme bypasses the controllers — nothing may reach a
		// real queue.
		if tot.MemSubmitted != 0 {
			badf("optimal scheme submitted %d controller requests", tot.MemSubmitted)
		}
	} else if tot.MemSubmitted != tot.MemServed {
		badf("DRAM requests: submitted %d, served %d", tot.MemSubmitted, tot.MemServed)
	}
	// Exactly one memory service per off-chip access, in both modes.
	if tot.MemServed != tot.OffChip {
		badf("served %d memory requests for %d off-chip accesses", tot.MemServed, tot.OffChip)
	}
	for c := 0; c < 2; c++ {
		cdf := tot.HopCDF[c]
		if cdf == nil {
			continue
		}
		// Figure 15 shape: one entry per reachable hop count, 0..diameter.
		if tot.MaxHops >= 0 && len(cdf) != tot.MaxHops+1 {
			badf("class %d hop CDF has %d entries for diameter %d (want %d)",
				c, len(cdf), tot.MaxHops, tot.MaxHops+1)
		}
		// Every injected message was delivered: a class with traffic must
		// close at exactly 1.
		if tot.NetMsgs[c] != 0 && (len(cdf) == 0 || cdf[len(cdf)-1] != 1) {
			badf("class %d hop CDF does not close at 1: %v", c, cdf)
		}
	}
	if tot.Injected > 0 && tot.Events <= tot.Injected {
		badf("processed %d events for %d accesses (multi-stage flow missing)",
			tot.Events, tot.Injected)
	}
	return vs
}
