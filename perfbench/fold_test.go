package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func payload(i int) []byte { return []byte(fmt.Sprintf("wtx-%08d|c0-k0001|", i)) }

func stream(n int, gap time.Duration) ([][]byte, []time.Duration) {
	p := make([][]byte, n)
	d := make([]time.Duration, n)
	for i := range p {
		p[i] = payload(i)
		d[i] = time.Duration(i) * gap
	}
	return p, d
}

func TestNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank never interpolates: p50 of {1, 5, 20} is the 2nd value.
	if got := nearestRank([]float64{20, 1, 5}, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := nearestRank([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); got != 10 {
		t.Errorf("p99 of ten samples = %v, want the largest", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

func TestLatencyFromDueTime(t *testing.T) {
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	commit := []time.Duration{5 * time.Millisecond, 30 * time.Millisecond, 21 * time.Millisecond}
	f := foldCommits(due, commit, nil)
	want := []float64{5, 20, 1}
	for i := range want {
		if f.lat[i] != want[i] {
			t.Fatalf("latencies %v, want %v", f.lat, want)
		}
	}
	if p50 := nearestRank(f.lat, 50); p50 != 5 {
		t.Errorf("p50 %v, want 5", p50)
	}

	// Through the ledger: a transaction due 50 ms into the stream that
	// commits 120 ms in has 70 ms of latency, however late it was
	// submitted.
	p, d := stream(1, 0)
	d[0] = 50 * time.Millisecond
	l := newLedger(p, d)
	l.start(time.Now().Add(-120 * time.Millisecond))
	l.decide(1, "b1", [][]byte{p[0]})
	got := l.fold().lat[0]
	if got < 70 || got > 170 {
		t.Errorf("latency %v ms, want ≈70 ms measured from the due time", got)
	}
}

func TestUncommittedCountAsFailed(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	commit := []time.Duration{4 * time.Millisecond, -1, 9 * time.Millisecond, -1}
	f := foldCommits(due, commit, nil)
	if f.offered != 4 || f.committed != 2 || len(f.lat) != 2 {
		t.Fatalf("offered %d committed %d samples %d", f.offered, f.committed, len(f.lat))
	}
	// Throughput counts committed transactions over first due → last commit.
	if want := 2 / (9 * time.Millisecond).Seconds(); f.drainTPS != want {
		t.Errorf("drain %v, want %v", f.drainTPS, want)
	}
}

func TestDeadlineEndsWaitAndReportsFailures(t *testing.T) {
	p, d := stream(4, time.Millisecond)
	l := newLedger(p, d)
	l.start(time.Now())
	l.decide(1, "b1", [][]byte{p[0], p[1]})
	begin := time.Now()
	if l.wait(50 * time.Millisecond) {
		t.Fatal("wait reported every transaction committed")
	}
	if el := time.Since(begin); el > 2*time.Second {
		t.Fatalf("wait took %v, want it to end at the 50 ms deadline", el)
	}
	if f := l.fold(); f.offered != 4 || f.committed != 2 {
		t.Errorf("offered %d committed %d, want 4 and 2", f.offered, f.committed)
	}

	// Once the rest commit, wait returns at once.
	l.decide(2, "b2", [][]byte{p[2], p[3]})
	if !l.wait(time.Hour) {
		t.Error("wait after full commit reported failure")
	}
}

func TestLedgerCorrectnessChecks(t *testing.T) {
	p, d := stream(3, 0)
	for _, c := range []struct {
		name   string
		decide func(l *ledger)
		want   string
	}{
		{"double commit", func(l *ledger) {
			l.decide(1, "b1", [][]byte{p[0]})
			l.decide(2, "b2", [][]byte{p[0]})
		}, "committed twice"},
		{"never offered", func(l *ledger) {
			l.decide(1, "b1", [][]byte{[]byte("wtx-00000001|forged|")})
		}, "never offered"},
		{"unparseable", func(l *ledger) { l.decide(1, "b1", [][]byte{[]byte("junk")}) }, "never offered"},
		{"disagreement", func(l *ledger) {
			l.decide(1, "b1", [][]byte{p[0]})
			l.decide(1, "other", [][]byte{p[1]})
		}, "different blocks"},
	} {
		l := newLedger(p, d)
		l.start(time.Now())
		c.decide(l)
		if l.err == nil || !strings.Contains(l.err.Error(), c.want) {
			t.Errorf("%s: err %v, want %q", c.name, l.err, c.want)
		}
	}
	// Agreeing replicas re-deciding a slot is fine.
	l := newLedger(p, d)
	l.start(time.Now())
	for i := 0; i < 4; i++ {
		l.decide(1, "b1", [][]byte{p[0], p[1]})
	}
	if l.err != nil {
		t.Errorf("agreeing replicas: %v", l.err)
	}
}

func TestLongestGap(t *testing.T) {
	ts := []time.Duration{30, 10, 11, 70, 12}
	if g := longestGap(ts); g != 40 {
		t.Errorf("gap %v, want 40", g)
	}
	slots := []slotRec{{at: 0}, {at: 5}, {at: -1}, {at: 25}, {at: 27}}
	if f := foldCommits(nil, nil, slots); f.outageMS != ms(20) {
		t.Errorf("outage %v, want the 5→25 gap", f.outageMS)
	}
}

func TestTxIndex(t *testing.T) {
	if i, ok := txIndex(payload(42)); !ok || i != 42 {
		t.Errorf("txIndex = %d, %v", i, ok)
	}
	for _, bad := range []string{"", "wtx-", "wtx-|x|", "wtx-abc|x|", "otx-00000001"} {
		if _, ok := txIndex([]byte(bad)); ok {
			t.Errorf("txIndex(%q) accepted", bad)
		}
	}
}

// TestTCPTrialEndsAtDeadline runs a real 4-replica trial whose stream is
// longer than its deadline: the trial must return at the deadline, not
// hang, and report the transactions it never committed as failed.
func TestTCPTrialEndsAtDeadline(t *testing.T) {
	shape := tcpShape{count: 400, rate: 200, deadline: 300 * time.Millisecond}
	begin := time.Now()
	res, err := runTCP(shape, 7, false, t.TempDir(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(begin); el > 10*time.Second {
		t.Fatalf("trial took %v", el)
	}
	if res.Offered != 400 || res.Committed >= res.Offered || res.Committed == 0 {
		t.Errorf("offered %d committed %d, want some but not all committed", res.Offered, res.Committed)
	}
}

// TestTCPTrialTraced checks a short traced trial commits everything and
// fills the per-layer metrics it should.
func TestTCPTrialTraced(t *testing.T) {
	shape := tcpShape{count: 200, rate: 1000, deadline: 5 * time.Second}
	res, err := runTCP(shape, 3, true, t.TempDir(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != res.Offered {
		t.Fatalf("committed %d of %d", res.Committed, res.Offered)
	}
	for _, name := range []string{"wal.persist_p50_us", "transport.frames_per_slot", "transport.send_p50_us",
		"multishot.deliver_self_p50_us", "blockchain.drain_p50_us", "blockchain.txs_per_batch"} {
		if res.Layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Layers[name])
		}
	}
	if got := res.Layers["blockchain.committed_per_drained"]; got != 1 {
		t.Errorf("committed per drained %v, want 1 with no faults", got)
	}
}

// TestBenchmarkManifest keeps the metric names, units and workloads this
// program prints in step with BENCHMARK.json at the repository root.
func TestBenchmarkManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, w := range manifest.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	e2e := endToEndMetrics("tcp-steady", []*trialResult{{}})
	if len(e2e) != len(manifest.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, manifest lists %d", len(e2e), len(manifest.EndToEnd))
	}
	for _, m := range manifest.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: program has %+v", m.Name, got)
		}
	}
	if len(perLayer) != len(manifest.PerLayer) {
		t.Fatalf("program prints %d per-layer metrics, manifest lists %d", len(perLayer), len(manifest.PerLayer))
	}
	for i, m := range manifest.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %d: program %v, manifest %v", i, perLayer[i], m)
		}
	}
}
