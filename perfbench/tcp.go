package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/obs"
	"tetrabft/internal/transport"
	"tetrabft/internal/types"
	"tetrabft/internal/wal"
	"tetrabft/internal/workload"
)

// Cluster shape shared by every tcp-* workload: 4 replicas on loopback
// (f = 1), pipeline window 2, up to 256 transactions per block.
const (
	replicas  = 4
	window    = 2
	batchSize = 256
)

// tcpShape is one tcp-* workload's offered stream and fault schedule.
type tcpShape struct {
	// count transactions arrive as a Poisson stream of rate tx/s.
	count int
	rate  float64
	// deadline ends the trial (from the first due time) even if some
	// transactions never committed.
	deadline time.Duration
	// killAt/restartAt hard-kill replica 1 and relaunch it from its WAL
	// (zero = no fault).
	killAt, restartAt time.Duration
}

func tcpShapes() map[string]tcpShape {
	return map[string]tcpShape{
		// 3 s of Poisson arrivals at 2000 tx/s: far below the drain rate,
		// so the queue stays short and latency is the protocol's.
		"tcp-steady": {count: 6000, rate: 2000, deadline: 8 * time.Second},
		// 100k transactions all due within the first 50 ms: a deep queue
		// whose drain rate is the cluster's throughput.
		"tcp-flood": {count: 100_000, rate: 2_000_000, deadline: 15 * time.Second},
		// tcp-steady's rate for 3 s with replica 1 killed 0.25 s in and
		// restarted from its WAL a second later; the deadline is fixed.
		// Most of the stream arrives after the kill, so the figures
		// describe the degraded cluster rather than a mix of both regimes.
		"tcp-crash": {count: 6000, rate: 2000, deadline: 4 * time.Second, killAt: 250 * time.Millisecond, restartAt: 1250 * time.Millisecond},
	}
}

// schedule builds the offered stream from the seed: payloads and due
// offsets (the workload package's Poisson process, ticks = milliseconds).
func (s tcpShape) schedule(seed int64) ([][]byte, []time.Duration, error) {
	spec := workload.Spec{Arrival: workload.ArrivalSpec{Process: workload.ProcessPoisson, Rate: s.rate / 10}}
	arr, err := spec.Schedule(s.count, seed)
	if err != nil {
		return nil, nil, err
	}
	payloads := make([][]byte, len(arr))
	due := make([]time.Duration, len(arr))
	for i, a := range arr {
		payloads[i] = a.Payload
		due[i] = time.Duration(a.At) * time.Millisecond
	}
	return payloads, due, nil
}

// tcpReplica is one replica and its current incarnation.
type tcpReplica struct {
	id        types.NodeID
	dir       string
	addr      string
	node      *multishot.Node
	rt        *transport.Runtime
	sp        *spans
	watermark atomic.Int64
	// loadDur is how long the last restore's WAL Load + Restore took.
	loadDur time.Duration
}

// tcpCluster is a 4-replica deployment assembled from the public layer
// functions: wal.OpenMulti, multishot.NewNode/Restore, transport.New and
// one shared blockchain.TimedMempool.
type tcpCluster struct {
	reps   []*tcpReplica
	pool   *blockchain.TimedMempool
	led    *ledger
	reg    *obs.Registry
	traced bool
	addrs  map[types.NodeID]string
}

func newTCPCluster(walRoot string, pool *blockchain.TimedMempool, led *ledger, traced bool) (*tcpCluster, error) {
	c := &tcpCluster{pool: pool, led: led, traced: traced, addrs: make(map[types.NodeID]string)}
	if traced {
		c.reg = obs.NewRegistry()
	}
	for i := 0; i < replicas; i++ {
		rep := &tcpReplica{id: types.NodeID(i), dir: filepath.Join(walRoot, fmt.Sprintf("replica-%d", i)), sp: &spans{}}
		if err := c.launch(rep, false); err != nil {
			c.close()
			return nil, err
		}
		rep.addr = rep.rt.Addr()
		c.addrs[rep.id] = rep.addr
		c.reps = append(c.reps, rep)
	}
	for _, rep := range c.reps {
		rep.rt.SetPeers(c.addrs)
	}
	for _, rep := range c.reps {
		rep.rt.Run()
	}
	return c, nil
}

// launch builds one incarnation of rep: a fresh node, or (restore) the
// node recovered from its WAL.
func (c *tcpCluster) launch(rep *tcpReplica, restore bool) error {
	store, err := wal.OpenMulti(rep.dir)
	if err != nil {
		return err
	}
	var persist multishot.Persister = store
	batch := c.pool.BatchSource(batchSize)
	if c.traced {
		persist = tracedPersister{inner: store, sp: rep.sp}
		batch = tracedBatch(c.pool, batch, rep.sp, true)
	}
	cfg := multishot.Config{ID: rep.id, Nodes: replicas, Window: window, Batch: batch, Persist: persist, Metrics: c.reg}
	var node *multishot.Node
	if restore {
		t := time.Now()
		state, found, err := store.Load()
		if err != nil {
			return fmt.Errorf("replica %d: %w", rep.id, err)
		}
		if !found {
			return fmt.Errorf("replica %d: no WAL snapshot to restore", rep.id)
		}
		if node, err = multishot.Restore(cfg, state); err != nil {
			return fmt.Errorf("replica %d: %w", rep.id, err)
		}
		rep.loadDur = time.Since(t)
	} else if node, err = multishot.NewNode(cfg); err != nil {
		return err
	}
	var machine types.Machine = node
	if c.traced {
		machine = newTracedMachine(node, rep.sp)
	}
	listen := rep.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	rt, err := transport.New(machine, transport.Config{
		ListenAddr: listen,
		Metrics:    c.reg,
		// OnDecide runs on the replica's event loop, inside the node's
		// handler, so reading the node's finalized chain here is safe.
		OnDecide: func(slot types.Slot, val types.Value) {
			c.led.decide(slot, val, node.FinalizedChain()[slot-1].Txs)
			rep.watermark.Store(int64(slot))
		},
	})
	if err != nil {
		return err
	}
	rep.node, rep.rt = node, rt
	return nil
}

// waitReady blocks until every replica finalized at least one slot: the
// cluster is connected and its pipeline is running.
func (c *tcpCluster) waitReady(limit time.Duration) error {
	stop := time.Now().Add(limit)
	for {
		ready := true
		for _, rep := range c.reps {
			if rep.watermark.Load() < 1 {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(stop) {
			return fmt.Errorf("cluster not ready after %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every runtime and joins its goroutines.
func (c *tcpCluster) close() {
	for _, rep := range c.reps {
		if rep.rt != nil {
			rep.rt.Close()
		}
	}
}

// counter reads an obs counter of the traced cluster.
func (c *tcpCluster) counter(name string) float64 { return float64(c.reg.Counter(name).Value()) }

// runTCP runs one trial of a tcp-* workload.
func runTCP(shape tcpShape, seed int64, traced bool, walRoot string, spawned time.Time) (*trialResult, error) {
	schedAt := time.Now()
	payloads, due, err := shape.schedule(seed)
	if err != nil {
		return nil, err
	}
	sched := time.Since(schedAt)
	pool := blockchain.NewTimedMempool(len(payloads))
	led := newLedger(payloads, due)
	startedAt := time.Now()
	c, err := newTCPCluster(walRoot, pool, led, traced)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := c.waitReady(10 * time.Second); err != nil {
		return nil, err
	}

	// The stream begins now. One generator goroutine submits each
	// transaction at its due time, whatever the cluster is doing (open
	// loop); submitted records when it actually got there.
	t0 := time.Now()
	setup := t0.Sub(spawned)
	led.start(t0)
	submitted := make([]time.Time, len(payloads))
	stopGen := make(chan struct{})
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		for i, p := range payloads {
			if d := time.Until(t0.Add(due[i])); d > 0 {
				select {
				case <-time.After(d):
				case <-stopGen:
					return
				}
			}
			submitted[i] = time.Now()
			pool.Submit(0, p)
		}
	}()

	var faultErr error
	var restartedAt time.Time
	var faults sync.WaitGroup
	if shape.killAt > 0 {
		rep := c.reps[1]
		faults.Add(1)
		go func() {
			defer faults.Done()
			time.Sleep(time.Until(t0.Add(shape.killAt)))
			rep.rt.Kill()
			time.Sleep(time.Until(t0.Add(shape.restartAt)))
			restartedAt = time.Now()
			rep.watermark.Store(0)
			if err := c.launch(rep, true); err != nil {
				faultErr = err
				return
			}
			rep.rt.SetPeers(c.addrs)
			rep.rt.Run()
		}()
	}

	led.wait(shape.deadline)
	faults.Wait()
	close(stopGen)
	gen.Wait()
	end := time.Now()
	c.close()
	if faultErr != nil {
		return nil, faultErr
	}
	if led.err != nil {
		return nil, led.err
	}
	if err := c.checkChains(); err != nil {
		return nil, err
	}

	f := led.fold()
	res := &trialResult{
		SetupS:    setup.Seconds(),
		Offered:   f.offered,
		Committed: f.committed,
		P50MS:     nearestRank(f.lat, 50),
		P99MS:     nearestRank(f.lat, 99),
		DrainTPS:  f.drainTPS,
		OutageMS:  f.outageMS,
		WallS:     end.Sub(t0).Seconds(),
	}
	if traced {
		res.Layers = c.layers(f, led, end.Sub(startedAt), due, submitted, t0, restartedAt, end)
		res.Layers["workload.schedule_ms"] = ms(sched)
	}
	return res, nil
}

// checkChains verifies that every replica's final incarnation holds the
// chain it announced: each finalized block's ID equals the block the
// ledger recorded first at that slot. Together with the ledger's per-slot
// check, live replicas agree on their common prefix.
func (c *tcpCluster) checkChains() error {
	for _, rep := range c.reps {
		chain := rep.node.FinalizedChain()
		c.led.mu.Lock()
		slots := c.led.slots
		c.led.mu.Unlock()
		for i, b := range chain {
			if i >= len(slots) || slots[i].at < 0 || slots[i].id != b.ID().Value() {
				return fmt.Errorf("replica %d diverges from the cluster at slot %d", rep.id, i+1)
			}
		}
	}
	return nil
}

// layers computes the per-layer metrics of a traced trial.
func (c *tcpCluster) layers(f txFold, led *ledger, wall time.Duration, due []time.Duration, submitted []time.Time, t0 time.Time,
	restartedAt, end time.Time) map[string]float64 {
	all := make([]*spans, len(c.reps))
	for i, rep := range c.reps {
		all[i] = rep.sp
	}
	sp := merged(all)
	led.mu.Lock()
	slots := 0
	for _, s := range led.slots {
		if s.at >= 0 {
			slots++
		}
	}
	led.mu.Unlock()
	perSlot := func(x float64) float64 { return x / float64(max(slots, 1)) }
	busy := float64(len(c.reps)) * float64(wall)

	late := make([]float64, 0, len(submitted))
	for i, t := range submitted {
		if !t.IsZero() {
			late = append(late, ms(t.Sub(t0.Add(due[i]))))
		}
	}
	var wait []float64
	for _, m := range sp.drainedAt {
		if m.tx < len(submitted) && !submitted[m.tx].IsZero() {
			wait = append(wait, ms(m.at.Sub(submitted[m.tx])))
		}
	}
	out := map[string]float64{
		"wal.persist_p50_us":               nearestRank(us(sp.persist), 50),
		"wal.persist_p99_us":               nearestRank(us(sp.persist), 99),
		"wal.persists_per_slot":            perSlot(float64(len(sp.persist)) / float64(len(c.reps))),
		"wal.busy_share":                   sum(sp.persist) / busy,
		"multishot.view_changes":           c.counter("multishot_view_changes_total"),
		"transport.reconnects":             c.counter("transport_reconnects_total"),
		"transport.frames_per_slot":        perSlot(c.counter("transport_frames_sent_total")),
		"transport.bytes_per_tx":           c.counter("transport_bytes_sent_total") / float64(max(f.committed, 1)),
		"transport.send_p50_us":            nearestRank(us(sp.send), 50),
		"transport.frames_dropped":         c.counter("transport_frames_dropped_total"),
		"multishot.deliveries_per_slot":    perSlot(c.counter("multishot_deliveries_total")),
		"multishot.deliver_self_p50_us":    nearestRank(us(sp.deliverSelf), 50),
		"multishot.deliver_self_p99_us":    nearestRank(us(sp.deliverSelf), 99),
		"multishot.loop_busy_share":        float64(sp.busy) / busy,
		"multishot.finalized_per_proposal": float64(slots) / max(c.counter("multishot_proposals_total"), 1),
		"blockchain.committed_per_drained": float64(f.committed) / float64(max(sp.drained, 1)),
		"blockchain.drain_p50_us":          nearestRank(us(sp.drain), 50),
		"blockchain.drain_p99_us":          nearestRank(us(sp.drain), 99),
		"blockchain.depth_at_drain_p50":    nearestRank(floats(sp.depth), 50),
		"blockchain.txs_per_batch":         float64(sp.drained) / float64(max(len(sp.drain), 1)),
		"blockchain.queue_wait_p50_ms":     nearestRank(wait, 50),
		"loadgen.late_p99_ms":              nearestRank(late, 99),
	}
	if !restartedAt.IsZero() {
		out["wal.load_ms"] = ms(c.reps[1].loadDur)
		if d := end.Sub(restartedAt).Seconds(); d > 0 {
			out["multishot.catchup_slots_per_s"] = float64(c.reps[1].watermark.Load()) / d
		}
	}
	return out
}
