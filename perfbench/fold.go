package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"tetrabft/internal/types"
)

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by nearest
// rank: the value at 1-based rank ⌈p/100·n⌉ of the sorted samples. It is
// the percentile definition the scenario engine uses, so benchmark and
// engine percentiles agree. Empty input yields 0.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle of xs (mean of the two middle values for an even
// count). It folds per-trial figures into one per-run figure.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// txIndex parses the stream index out of an offered payload
// ("wtx-%08d|key|", the workload package's format).
func txIndex(payload []byte) (int, bool) {
	const prefix = "wtx-"
	if !bytes.HasPrefix(payload, []byte(prefix)) {
		return 0, false
	}
	rest := payload[len(prefix):]
	end := bytes.IndexByte(rest, '|')
	if end <= 0 {
		return 0, false
	}
	i, err := strconv.Atoi(string(rest[:end]))
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// slotRec is a slot's earliest honest commit.
type slotRec struct {
	at time.Duration
	id types.Value // the finalized block's ID, as Decide reports it
}

// ledger is the benchmark's record of one trial: which transactions were
// offered and when they were due, and when each slot and transaction first
// committed at any honest replica. It is the only place correctness is
// judged: a transaction committed twice, a committed payload that was never
// offered, and two replicas finalizing different blocks at one slot each
// fail the trial.
type ledger struct {
	t0      time.Time
	offered [][]byte
	due     []time.Duration

	mu        sync.Mutex
	commit    []time.Duration // -1 until committed
	committed int
	slots     []slotRec // index slot-1; at < 0 means not yet committed
	err       error
	done      chan struct{}
}

func newLedger(offered [][]byte, due []time.Duration) *ledger {
	l := &ledger{
		offered: offered,
		due:     due,
		commit:  make([]time.Duration, len(offered)),
		done:    make(chan struct{}),
	}
	for i := range l.commit {
		l.commit[i] = -1
	}
	if len(offered) == 0 {
		close(l.done)
	}
	return l
}

// start fixes the trial's time origin: due times and commit times are
// offsets from it.
func (l *ledger) start(t0 time.Time) {
	l.mu.Lock()
	l.t0 = t0
	l.mu.Unlock()
}

// decide records a replica finalizing block (id, txs) at slot. The clock
// is read under the lock, so the first caller for a slot holds the
// earliest commit time; later callers only check agreement.
func (l *ledger) decide(slot types.Slot, id types.Value, txs [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at := time.Since(l.t0)
	for int(slot) > len(l.slots) {
		l.slots = append(l.slots, slotRec{at: -1})
	}
	rec := &l.slots[slot-1]
	if rec.at >= 0 {
		if rec.id != id && l.err == nil {
			l.err = fmt.Errorf("replicas finalized different blocks at slot %d", slot)
		}
		return
	}
	rec.at, rec.id = at, id
	if l.t0.IsZero() {
		rec.at = 0 // committed during set-up, before the stream began
	}
	for _, tx := range txs {
		i, ok := txIndex(tx)
		if !ok || i >= len(l.offered) || !bytes.Equal(l.offered[i], tx) {
			if l.err == nil {
				l.err = fmt.Errorf("slot %d committed a payload that was never offered: %q", slot, tx)
			}
			continue
		}
		if l.commit[i] >= 0 {
			if l.err == nil {
				l.err = fmt.Errorf("transaction %d committed twice (second time at slot %d)", i, slot)
			}
			continue
		}
		l.commit[i] = at
		l.committed++
		if l.committed == len(l.offered) {
			close(l.done)
		}
	}
}

// wait blocks until every offered transaction committed or the deadline
// (measured from t0) passed, whichever comes first, and reports whether
// everything committed.
func (l *ledger) wait(deadline time.Duration) bool {
	l.mu.Lock()
	t0 := l.t0
	l.mu.Unlock()
	timer := time.NewTimer(time.Until(t0.Add(deadline)))
	defer timer.Stop()
	select {
	case <-l.done:
		return true
	case <-timer.C:
		return false
	}
}

// txFold is the end-to-end view of a finished trial.
type txFold struct {
	offered, committed int
	// lat holds due→commit latencies (ms) of committed transactions.
	lat []float64
	// drainTPS is committed transactions per second from the first due
	// time to the last commit.
	drainTPS float64
	// outageMS is the longest gap between consecutive slot commits inside
	// the measurement window.
	outageMS float64
}

// fold summarizes the ledger. Transactions without a commit count as
// failed; latency is measured from each transaction's due time (not from
// when the generator got round to submitting it), so a late generator
// shows up as latency rather than hiding it.
func (l *ledger) fold() txFold {
	l.mu.Lock()
	defer l.mu.Unlock()
	return foldCommits(l.due, l.commit, l.slots)
}

func foldCommits(due, commit []time.Duration, slots []slotRec) txFold {
	f := txFold{offered: len(due)}
	var first, last time.Duration = -1, -1
	for i, c := range commit {
		if first < 0 || due[i] < first {
			first = due[i]
		}
		if c < 0 {
			continue
		}
		f.committed++
		f.lat = append(f.lat, ms(c-due[i]))
		if c > last {
			last = c
		}
	}
	if f.committed > 0 && last > first {
		f.drainTPS = float64(f.committed) / (last - first).Seconds()
	}
	var times []time.Duration
	for _, s := range slots {
		if s.at > 0 {
			times = append(times, s.at)
		}
	}
	f.outageMS = ms(longestGap(times))
	return f
}

// longestGap returns the largest difference between consecutive values of
// times once sorted.
func longestGap(times []time.Duration) time.Duration {
	s := append([]time.Duration(nil), times...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var gap time.Duration
	for i := 1; i < len(s); i++ {
		if d := s[i] - s[i-1]; d > gap {
			gap = d
		}
	}
	return gap
}
