package replica

import (
	"sync"

	"mlq/internal/telemetry"
)

// GroupTelemetry mirrors a replica group's health into a telemetry
// registry under the mlq_replica_* namespace:
//
//	mlq_replica_lag_records{replica}     gauge   acknowledged observations the replica's view does not cover yet
//	mlq_replica_applied_records{replica} counter records folded into a follower's model
//	mlq_replica_catchup_records{replica} counter records recovered via journal catch-up or checkpoint resync
//	mlq_replica_failovers                counter completed failovers
//	mlq_replica_fenced_writes            counter writes rejected with ErrFencedTerm
//	mlq_replica_fenced_records           counter stale-lineage stream records dropped by followers
//
// Construct one with NewGroupTelemetry and hand it to Config.Telemetry; the
// per-replica series are materialized when the group registers its ids.
type GroupTelemetry struct {
	reg *telemetry.Registry

	failovers     *telemetry.Counter
	fencedWrites  *telemetry.Counter
	fencedRecords *telemetry.Counter

	mu       sync.Mutex
	appliedC map[string]*telemetry.Counter
	catchupC map[string]*telemetry.Counter
}

// NewGroupTelemetry binds the group-level series now; per-replica series
// appear when a Group is built with this telemetry.
func NewGroupTelemetry(reg *telemetry.Registry) *GroupTelemetry {
	if reg == nil {
		return nil
	}
	return &GroupTelemetry{
		reg:           reg,
		failovers:     reg.Counter("mlq_replica_failovers", "completed primary failovers"),
		fencedWrites:  reg.Counter("mlq_replica_fenced_writes", "writes rejected by term fencing"),
		fencedRecords: reg.Counter("mlq_replica_fenced_records", "stale-lineage stream records dropped by followers"),
		appliedC:      make(map[string]*telemetry.Counter),
		catchupC:      make(map[string]*telemetry.Counter),
	}
}

// register materializes the per-replica series for a group's ids.
func (t *GroupTelemetry) register(g *Group) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range g.ids {
		l := telemetry.L("replica", id)
		n := g.nodes[id]
		t.reg.GaugeFunc("mlq_replica_lag_records", "acknowledged observations the replica's view does not cover yet",
			func() float64 { return float64(g.lagRecords(n)) }, l)
		t.appliedC[id] = t.reg.Counter("mlq_replica_applied_records", "records folded into the replica's model", l)
		t.catchupC[id] = t.reg.Counter("mlq_replica_catchup_records", "records recovered via journal catch-up or checkpoint resync", l)
	}
}

func (t *GroupTelemetry) appliedRecs(id string, n int64) {
	t.mu.Lock()
	c := t.appliedC[id]
	t.mu.Unlock()
	if c != nil {
		c.Add(n)
	}
}

func (t *GroupTelemetry) caughtUp(id string, n int64) {
	t.mu.Lock()
	c := t.catchupC[id]
	t.mu.Unlock()
	if c != nil {
		c.Add(n)
	}
}
