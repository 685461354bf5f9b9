package orchestrator

import (
	"sort"
	"sync/atomic"
	"time"

	"ovshighway/internal/flow"
	"ovshighway/internal/loop"
)

// This file is the cluster's converging control plane. Deploy installs the
// fabric once; everything here is about noticing that reality has drifted
// from the deployment's declared intent — a vSwitch restart wiped a flow
// table, a trunk died, an operator fat-fingered a rule delete — and putting
// it back. The shape follows production NFV controllers (a desired-state
// spec plus a reconcile loop), scaled down to this reproduction: the
// ClusterDeployment IS the spec (graph, fabric config, lane assignments),
// and a pass re-derives what every node should hold and repairs the
// difference. Bypasses are deliberately NOT reconciled directly: the p2p
// detector re-establishes them on its own once the steering rules are back,
// which is the transparency argument surviving faults.

// flowKey identifies a rule slot in a table: the (priority, match) pair
// that Add-replacement semantics key on.
type flowKey struct {
	prio uint16
	m    flow.Match
}

// desiredSpecs derives the deployment's complete intended rule set per
// node: each local deployment's edge rules plus every crossing's steering
// rules against the fabric's CURRENT trunk ports. Caller holds cd.mu.
func (cd *ClusterDeployment) desiredSpecs() (map[string][]flow.FlowSpec, error) {
	specs := make(map[string][]flow.FlowSpec)
	for node, d := range cd.deps {
		specs[node] = append(specs[node], d.specs...)
	}
	for _, st := range cd.steers {
		if err := cd.steerSpecsInto(st, specs); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// cookiesOn returns the cookie values this deployment stamps on the given
// node — the ownership filter for reading installed state back.
func (cd *ClusterDeployment) cookiesOn(node string) map[uint64]bool {
	mine := map[uint64]bool{cd.steerCookie: true}
	if d := cd.deps[node]; d != nil {
		mine[d.cookie] = true
	}
	return mine
}

// installedOn snapshots the deployment's rules currently installed on a
// node, keyed by rule slot.
func (cd *ClusterDeployment) installedOn(node string) map[flowKey]*flow.Flow {
	installed := make(map[flowKey]*flow.Flow)
	mine := cd.cookiesOn(node)
	for _, f := range cd.cluster.nodes[node].Switch.Table().Snapshot() {
		if mine[f.Cookie] {
			installed[flowKey{f.Priority, f.Match}] = f
		}
	}
	return installed
}

// applySpecs converges every node's installed rules onto desired: missing
// or diverged slots are (re)installed — Add replacement semantics make each
// fix atomic per slot — and slots installed but no longer desired are
// deleted. Returns the number of mutations. Caller holds cd.mu.
func (cd *ClusterDeployment) applySpecs(desired map[string][]flow.FlowSpec) int {
	repairs := 0
	for _, node := range cd.cluster.order {
		installed := cd.installedOn(node)
		want := desired[node]
		wantKeys := make(map[flowKey]bool, len(want))
		var add []flow.FlowSpec
		for _, sp := range want {
			k := flowKey{sp.Priority, sp.Match}
			wantKeys[k] = true
			f, ok := installed[k]
			if !ok || f.Cookie != sp.Cookie || !f.Actions.Equal(sp.Actions) {
				add = append(add, sp)
			}
		}
		table := cd.cluster.nodes[node].Switch.Table()
		if len(add) > 0 {
			table.AddBatch(add)
			repairs += len(add)
		}
		for k := range installed {
			if !wantKeys[k] && table.DeleteStrict(k.prio, k.m) {
				repairs++
			}
		}
	}
	return repairs
}

// Reconcile runs one convergence pass over this deployment: repair the
// trunk fabric first (recreate vanished adjacencies, rebuild failed bundle
// slots in place, re-register missing lanes), then re-derive the desired
// rule set against the repaired ports and converge every node's flow table
// onto it. Returns the number of repairs made — zero means the pass found
// reality matching intent. Safe to call concurrently with traffic; it
// never touches the PMD hot path, only the tables the datapath snapshots.
func (cd *ClusterDeployment) Reconcile() (int, error) {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	if cd.stopped {
		return 0, nil
	}
	if cd.migrating != "" {
		// A live migration's drain window is in progress: desired state
		// already reflects the new layout, but the stale old-path rules
		// must survive until the drain completes. Converging now would
		// delete them mid-drain and drop the packets they are carrying,
		// so the pass defers; the migration itself converges the tables
		// in its step 6.
		return 0, nil
	}
	repairs := 0
	c := cd.cluster
	c.mu.Lock()
	for _, st := range cd.steers {
		for _, path := range st.paths {
			for _, pair := range path {
				ct, ok := c.trunks[pair]
				if !ok {
					var err error
					ct, err = c.ensureTrunk(pair, cd.tcfg)
					if err != nil {
						c.mu.Unlock()
						return repairs, err
					}
					repairs++
				} else {
					n, err := c.repairTrunkLocked(ct)
					repairs += n
					if err != nil {
						c.mu.Unlock()
						return repairs, err
					}
				}
				if !ct.lanes[st.vid] {
					if err := ct.addLaneLocked(st.vid); err != nil {
						c.mu.Unlock()
						return repairs, err
					}
					repairs++
				}
			}
		}
	}
	c.mu.Unlock()
	desired, err := cd.desiredSpecs()
	if err != nil {
		return repairs, err
	}
	return repairs + cd.applySpecs(desired), nil
}

// deploymentsSorted snapshots the live deployments in creation order (the
// steer cookie is allocation-ordered), the walk order every cluster-wide
// control loop uses.
func (c *Cluster) deploymentsSorted() []*ClusterDeployment {
	c.mu.Lock()
	cds := make([]*ClusterDeployment, 0, len(c.deployments))
	for cd := range c.deployments {
		cds = append(cds, cd)
	}
	c.mu.Unlock()
	sort.Slice(cds, func(i, j int) bool { return cds[i].steerCookie < cds[j].steerCookie })
	return cds
}

// ReconcileOnce runs one convergence pass over every live deployment, in
// deployment-creation order, and returns the total repairs made.
func (c *Cluster) ReconcileOnce() (int, error) {
	cds := c.deploymentsSorted()
	total := 0
	for _, cd := range cds {
		n, err := cd.Reconcile()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReconcilerStats is a point-in-time read of a reconciler's counters.
type ReconcilerStats struct {
	Passes  uint64 // convergence passes completed
	Repairs uint64 // total drift repairs across all passes
	Errors  uint64 // passes that hit an unrepairable error
}

// Reconciler is the background convergence loop: every interval it runs
// ReconcileOnce over the cluster's deployments. It is the component that
// turns the fault-injection surface (FailTrunk, FailNode, RestartVSwitch,
// rule wipes) into transient blips instead of permanent outages.
type Reconciler struct {
	c    *Cluster
	loop *loop.Loop

	passes  atomic.Uint64
	repairs atomic.Uint64
	errs    atomic.Uint64
}

// StartReconciler launches the background loop (interval <= 0 defaults to
// 10ms — fast convergence at simulation time scales). Stop the reconciler
// before stopping the cluster, or a mid-teardown pass may rebuild trunks
// the teardown just removed.
func (c *Cluster) StartReconciler(interval time.Duration) *Reconciler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	r := &Reconciler{c: c, loop: loop.New()}
	r.loop.Start(interval, r.pass)
	return r
}

func (r *Reconciler) pass() {
	n, err := r.c.ReconcileOnce()
	r.passes.Add(1)
	r.repairs.Add(uint64(n))
	if err != nil {
		r.errs.Add(1)
	}
}

// Stop halts the loop and waits for an in-flight pass to finish.
func (r *Reconciler) Stop() { r.loop.Stop() }

// Stats reads the loop's counters.
func (r *Reconciler) Stats() ReconcilerStats {
	return ReconcilerStats{
		Passes:  r.passes.Load(),
		Repairs: r.repairs.Load(),
		Errors:  r.errs.Load(),
	}
}
