package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/scenario"
	"tetrabft/internal/sim"
	"tetrabft/internal/sweep"
	"tetrabft/internal/types"
	"tetrabft/internal/workload"
)

// capacityPlan is the bundled plan the sim-capacity workload runs, the one
// `tetrabft-sweep -capacity tetrabft-multi-capacity` runs.
const capacityPlan = "tetrabft-multi-capacity"

// wantKnee is the plan's knee in txs per 100 ticks.
const wantKnee = 2506

// capacityReference is the plan's full tetrabft-capacity/v1 snapshot. The
// simulator is deterministic, so every run must reproduce it byte for byte.
//
//go:embed testdata/capacity_reference.json
var capacityReference []byte

// runCapacity runs one trial of sim-capacity: the whole knee search
// through sweep.RunCapacity, checked against the reference.
func runCapacity(traced bool, spawned time.Time) (*trialResult, error) {
	cp, ok := sweep.CapacityByName(capacityPlan)
	if !ok {
		return nil, fmt.Errorf("capacity plan %q not found", capacityPlan)
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := sweep.RunCapacity(cp)
	if err != nil {
		return nil, err
	}
	plan := time.Since(t0)
	if err := checkCapacity(res); err != nil {
		return nil, err
	}
	var offered, decided float64
	for _, p := range res.Probes {
		for _, rep := range p.Cell.Reps {
			offered += float64(rep.OfferedTxs)
			decided += float64(rep.DecidedTxs)
		}
	}
	out := &trialResult{
		SetupS:    t0.Sub(spawned).Seconds(),
		Offered:   int(offered),
		Committed: int(decided),
		PlanS:     plan.Seconds(),
		DrainTPS:  decided / plan.Seconds(),
		WallS:     plan.Seconds(),
	}
	if traced {
		if out.Layers, err = capacityLayers(res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkCapacity fails unless the knee is the known one and the snapshot
// (every probe's rate, verdict and statistics) equals the reference.
func checkCapacity(res *sweep.CapacityResult) error {
	if res.KneeRate != wantKnee {
		return fmt.Errorf("capacity knee %d, want %d", res.KneeRate, wantKnee)
	}
	got, err := res.MarshalIndent()
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(capacityReference)) {
		return fmt.Errorf("capacity probe table differs from testdata/capacity_reference.json")
	}
	return nil
}

// capacityLayers re-runs every probe cell through scenario.Run with
// metrics collection (timing each run), and replays the knee probe on a
// hand-assembled simulator cluster whose nodes carry the span wrappers.
func capacityLayers(res *sweep.CapacityResult) (map[string]float64, error) {
	var probeMS []float64
	var events, finalized, deliveries, proposals, wall float64
	for _, p := range res.Probes {
		for _, rep := range p.Cell.Reps {
			sc := p.Cell.Scenario
			sc.Seed = rep.Seed
			sc.Collect.Metrics = true
			t := time.Now()
			r, err := scenario.Run(sc)
			d := time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("re-run of probe %d seed %d: %w", p.Rate, rep.Seed, err)
			}
			if r.Events != rep.Events || r.DecidedTxs != rep.DecidedTxs {
				return nil, fmt.Errorf("re-run of probe %d seed %d: %d events / %d txs, the sweep saw %d / %d",
					p.Rate, rep.Seed, r.Events, r.DecidedTxs, rep.Events, rep.DecidedTxs)
			}
			probeMS = append(probeMS, ms(d))
			wall += d.Seconds()
			events += float64(r.Events)
			slots := float64(r.FinalizedSlot(0))
			finalized += slots
			deliveries += float64(r.Metric("multishot_deliveries_total"))
			proposals += float64(r.Metric("multishot_proposals_total"))
		}
	}
	out := map[string]float64{
		"sweep.probes":                     float64(len(res.Probes)),
		"scenario.probe_p50_ms":            nearestRank(probeMS, 50),
		"sim.events_per_s":                 events / wall,
		"multishot.deliveries_per_slot":    deliveries / finalized,
		"multishot.finalized_per_proposal": finalized / proposals,
	}
	var knee *sweep.ProbeResult
	for i := range res.Probes {
		if res.Probes[i].Rate == res.KneeRate {
			knee = &res.Probes[i]
		}
	}
	if err := kneeSpans(knee, out); err != nil {
		return nil, err
	}
	return out, nil
}

// kneeSpans replays the knee probe's replicates on a simulator cluster
// built the way the scenario engine builds it (4 multishot nodes, one
// arrival-gated mempool, unit delays), with every node wrapped, and checks
// the replay matches the sweep's record of the same runs.
func kneeSpans(knee *sweep.ProbeResult, out map[string]float64) error {
	sc := knee.Cell.Scenario
	var all []*spans
	var busy, wallNS, decided, drained float64
	var sched []float64
	for _, rep := range knee.Cell.Reps {
		spec := workload.Spec{Arrival: *sc.Workload.Arrival}
		var arr []workload.Arrival
		for i := 0; i < 3; i++ {
			t := time.Now()
			var err error
			if arr, err = spec.Schedule(sc.Workload.TxCount, rep.Seed); err != nil {
				return err
			}
			sched = append(sched, ms(time.Since(t)))
		}
		pool := blockchain.NewTimedMempool(len(arr))
		for _, a := range arr {
			pool.Submit(a.At, a.Payload)
		}
		r := sim.New(sim.Config{Seed: rep.Seed})
		var nodes []*multishot.Node
		var sps []*spans
		for id := 0; id < sc.Nodes; id++ {
			sp := &spans{}
			node, err := multishot.NewNode(multishot.Config{
				ID: types.NodeID(id), Nodes: sc.Nodes, Delta: 10, Window: sc.Workload.Window,
				MaxSlot: types.Slot(sc.Workload.Slots + 3),
				Batch:   tracedBatch(pool, pool.BatchSource(sc.Workload.BatchSize), sp, false),
			})
			if err != nil {
				return err
			}
			nodes = append(nodes, node)
			sps = append(sps, sp)
			r.Add(newTracedMachine(node, sp))
		}
		t := time.Now()
		if err := r.Run(types.Time(sc.Stop.Horizon), nil); err != nil {
			return err
		}
		wallNS += float64(time.Since(t))
		txs := 0
		for _, b := range nodes[0].FinalizedChain() {
			txs += len(b.Txs)
		}
		if r.Events() != rep.Events || txs != rep.DecidedTxs {
			return fmt.Errorf("knee replay seed %d: %d events / %d txs, the sweep saw %d / %d",
				rep.Seed, r.Events(), txs, rep.Events, rep.DecidedTxs)
		}
		for _, sp := range sps {
			busy += float64(sp.busy)
			drained += float64(sp.drained)
		}
		decided += float64(txs)
		all = append(all, sps...)
	}
	sp := merged(all)
	out["multishot.deliver_self_p50_us"] = nearestRank(us(sp.deliverSelf), 50)
	out["multishot.deliver_self_p99_us"] = nearestRank(us(sp.deliverSelf), 99)
	out["multishot.loop_busy_share"] = busy / wallNS
	out["blockchain.drain_p50_us"] = nearestRank(us(sp.drain), 50)
	out["blockchain.drain_p99_us"] = nearestRank(us(sp.drain), 99)
	out["blockchain.depth_at_drain_p50"] = nearestRank(floats(sp.depth), 50)
	out["blockchain.txs_per_batch"] = drained / float64(max(len(sp.drain), 1))
	out["blockchain.committed_per_drained"] = decided / max(drained, 1)
	out["workload.schedule_ms"] = median(sched)
	return nil
}
