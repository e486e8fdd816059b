package main

import (
	"time"

	"tetrabft/internal/blockchain"
	"tetrabft/internal/multishot"
	"tetrabft/internal/types"
)

// spans is one replica's in-memory span log. Every wrapper that writes to
// it runs on the replica's event-loop goroutine (persist, send and batch
// are all called from inside Start/Deliver/Tick), so it needs no locking;
// the trial reads it only after the runtime has been joined.
type spans struct {
	persist     []int64 // Persister.Persist durations, ns
	deliver     []int64 // Machine.Deliver durations, ns
	deliverSelf []int64 // Deliver minus the persist/send/batch time inside it, ns
	send        []int64 // Env.Send/Broadcast durations, ns
	drain       []int64 // Batch (TimedMempool drain) durations, ns
	depth       []int64 // queue length seen by each Batch call
	drained     int64   // transactions handed out by Batch
	drainedAt   []drainMark
	busy        int64 // total ns inside Start/Deliver/Tick
	nested      int64 // ns spent in wrapped callees during the current handler
}

// drainMark records when a transaction left the mempool.
type drainMark struct {
	tx int
	at time.Time
}

// tracedMachine wraps a protocol machine, timing every handler and
// handing the machine a timing Env.
type tracedMachine struct {
	inner types.Machine
	sp    *spans
	env   tracedEnv
}

func newTracedMachine(inner types.Machine, sp *spans) *tracedMachine {
	return &tracedMachine{inner: inner, sp: sp, env: tracedEnv{sp: sp}}
}

func (m *tracedMachine) ID() types.NodeID { return m.inner.ID() }

func (m *tracedMachine) Start(env types.Env) {
	m.env.inner = env
	t := time.Now()
	m.inner.Start(&m.env)
	m.sp.busy += int64(time.Since(t))
}

func (m *tracedMachine) Deliver(env types.Env, from types.NodeID, msg types.Message) {
	m.env.inner = env
	m.sp.nested = 0
	t := time.Now()
	m.inner.Deliver(&m.env, from, msg)
	d := int64(time.Since(t))
	m.sp.busy += d
	m.sp.deliver = append(m.sp.deliver, d)
	m.sp.deliverSelf = append(m.sp.deliverSelf, d-m.sp.nested)
}

func (m *tracedMachine) Tick(env types.Env, id types.TimerID) {
	m.env.inner = env
	t := time.Now()
	m.inner.Tick(&m.env, id)
	m.sp.busy += int64(time.Since(t))
}

// tracedEnv times the transport (or simulator) send path.
type tracedEnv struct {
	inner types.Env
	sp    *spans
}

func (e *tracedEnv) Now() types.Time { return e.inner.Now() }

func (e *tracedEnv) Send(to types.NodeID, msg types.Message) {
	t := time.Now()
	e.inner.Send(to, msg)
	e.sent(t)
}

func (e *tracedEnv) Broadcast(msg types.Message) {
	t := time.Now()
	e.inner.Broadcast(msg)
	e.sent(t)
}

func (e *tracedEnv) sent(t time.Time) {
	d := int64(time.Since(t))
	e.sp.send = append(e.sp.send, d)
	e.sp.nested += d
}

func (e *tracedEnv) SetTimer(id types.TimerID, d types.Duration) { e.inner.SetTimer(id, d) }

// Decide runs the benchmark's own commit bookkeeping; its time counts as
// nested so it stays out of the protocol's self time.
func (e *tracedEnv) Decide(slot types.Slot, val types.Value) {
	t := time.Now()
	e.inner.Decide(slot, val)
	e.sp.nested += int64(time.Since(t))
}

// tracedPersister times every write-ahead persist.
type tracedPersister struct {
	inner multishot.Persister
	sp    *spans
}

func (p tracedPersister) Persist(state multishot.PersistentState) error {
	t := time.Now()
	err := p.inner.Persist(state)
	d := int64(time.Since(t))
	p.sp.persist = append(p.sp.persist, d)
	p.sp.nested += d
	return err
}

// tracedBatch wraps a block-batch source over a timed mempool, recording
// the drain time, the queue depth it drained from, and (for queue-wait
// spans) when each transaction left the pool.
func tracedBatch(pool *blockchain.TimedMempool, batch func(types.Slot, types.Time) [][]byte, sp *spans, marks bool) func(types.Slot, types.Time) [][]byte {
	return func(slot types.Slot, now types.Time) [][]byte {
		depth := pool.Len()
		t := time.Now()
		txs := batch(slot, now)
		d := int64(time.Since(t))
		sp.drain = append(sp.drain, d)
		sp.depth = append(sp.depth, int64(depth))
		sp.drained += int64(len(txs))
		sp.nested += d
		if marks {
			for _, tx := range txs {
				if i, ok := txIndex(tx); ok {
					sp.drainedAt = append(sp.drainedAt, drainMark{tx: i, at: t})
				}
			}
		}
		return txs
	}
}

// merged folds several replicas' span logs into one.
func merged(all []*spans) *spans {
	out := &spans{}
	for _, sp := range all {
		out.persist = append(out.persist, sp.persist...)
		out.deliver = append(out.deliver, sp.deliver...)
		out.deliverSelf = append(out.deliverSelf, sp.deliverSelf...)
		out.send = append(out.send, sp.send...)
		out.drain = append(out.drain, sp.drain...)
		out.depth = append(out.depth, sp.depth...)
		out.drained += sp.drained
		out.drainedAt = append(out.drainedAt, sp.drainedAt...)
		out.busy += sp.busy
	}
	return out
}

// us converts ns samples to float microseconds.
func us(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

func floats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

func sum(xs []int64) float64 {
	var t int64
	for _, v := range xs {
		t += v
	}
	return float64(t)
}
