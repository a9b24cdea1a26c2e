// EXP-CHAOS: the live robustness audit plus the partial-failure
// campaign, both RunService calls. The audit stalls one shard per
// robustness class and reads each class off the faulted telemetry. The
// campaign stalls one shard of a fan-out deployment under lane-only
// traffic and checks the failure chain closes: the fault fires, the
// executor answers with typed partial results instead of blocking the
// whole fan-out, the fault heals, and a full-width request comes back
// clean.

package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/chaos"
)

// ChaosResult is EXP-CHAOS's outcome: the audit run (inline, so its
// consistent gate is a top-level boolean of the artifact), the campaign
// run, and whether the campaign's chain closed.
type ChaosResult struct {
	ServiceResult
	Campaign            ServiceResult `json:"campaign"`
	PartialChainsClosed bool          `json:"partial_chains_closed"`
}

// chaosAudit is the audit: one shard per robustness class, a stall in
// each from an eighth of the way in.
func chaosAudit(p Profile) ServiceConfig {
	d := 400 * time.Millisecond
	return ServiceConfig{Duration: d, Faults: FaultsInEveryShard(d, "stall"), Seed: p.Seed}
}

// chaosCampaign is the partial-failure campaign: four ebr shards of
// Michael's list (ordered, so range legs stop at their upper bound), one
// worker each so the stall parks shard 1 entirely — the case where
// partial results and shedding must carry the service — and every client
// on the fan-out lane. Two workers per shard leave a survivor that
// serves every leg, and no partial result ever shows.
func chaosCampaign(p Profile) ServiceConfig {
	cfg := ServiceConfig{
		Shards: 4, Schemes: []string{"ebr"}, Structure: "michael", WorkersPerShard: 1,
		Clients: 4, KeyRange: 4096, Duration: time.Second, FanoutPct: 100,
		Faults: []Fault{{Name: "stall", Shards: []int{1}, Schedule: chaos.OneShot(0)}},
		Seed:   p.Seed,
	}
	if p.Short {
		cfg.KeyRange, cfg.Duration = 1024, 400*time.Millisecond
	}
	return cfg
}

// runChaos runs the audit, then the campaign.
func runChaos(p Profile) (Result, error) {
	audit, err := RunService(chaosAudit(p))
	if err != nil {
		return nil, err
	}
	campaign, err := RunService(chaosCampaign(p))
	if err != nil {
		return nil, err
	}
	fired, healed := false, false
	for _, ev := range campaign.Events {
		fired = fired || ev.Err == ""
		healed = healed || ev.Healed > 0
	}
	a := campaign.Aggregate
	return ChaosResult{
		ServiceResult:       audit,
		Campaign:            campaign,
		PartialChainsClosed: fired && a.FanoutPartial > 0 && healed && a.CleanAfterHeal,
	}, nil
}

// Gates: no audit contradicted a declared class, and the campaign's
// partial-failure chain closed (fault fired → typed partial results →
// heal → clean full-width request).
func (res ChaosResult) Gates() []Gate {
	a := res.Campaign.Aggregate
	return append(res.ServiceResult.Gates(), Gate{
		Name: "partial_chains_closed", OK: res.PartialChainsClosed,
		Detail: fmt.Sprintf("partial-failure chain open: %d fault event(s), %d partial, clean after heal %v",
			len(res.Campaign.Events), a.FanoutPartial, a.CleanAfterHeal),
	})
}

// WriteTable renders the audit's table, then the campaign's.
func (res ChaosResult) WriteTable(w io.Writer) {
	res.ServiceResult.WriteTable(w)
	fmt.Fprintln(w, "-- partial-failure campaign --")
	res.Campaign.WriteTable(w)
	fmt.Fprintf(w, "partial chains closed: %v\n", res.PartialChainsClosed)
}
