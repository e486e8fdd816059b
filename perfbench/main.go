// Command perfbench is the repository's wall-clock benchmark. One run
// measures one workload for a fixed time and prints every metric by name
// and unit, ending with a one-line JSON summary.
//
//	perfbench --workload tcp-steady --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists and which metric should
// move with which layer):
//
//	tcp-steady    4 replicas over loopback TCP, Poisson arrivals at 2000 tx/s
//	tcp-flood     the same cluster, 100k transactions due in the first 50 ms
//	tcp-crash     tcp-steady's load, replica 1 killed and restarted from its WAL
//	sim-capacity  the bundled capacity plan through sweep.RunCapacity
//
// A run repeats trials until --seconds have passed and reports medians.
// Each trial is a child process of this binary, so every trial starts from
// a fresh heap and reports its own peak RSS. With --trace 0 the trials are
// untraced and the summary holds the end-to-end metrics; with --trace 1
// they carry the span wrappers and the summary holds the per-layer
// metrics. Either way one trial of the other kind runs last, so every
// output reports the tracing overhead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// trialResult is what one trial (child process) reports.
type trialResult struct {
	SetupS    float64            `json:"setup_s"`
	Offered   int                `json:"offered"`
	Committed int                `json:"committed"`
	P50MS     float64            `json:"p50_ms"`
	P99MS     float64            `json:"p99_ms"`
	DrainTPS  float64            `json:"drain_tps"`
	OutageMS  float64            `json:"outage_ms"`
	PlanS     float64            `json:"plan_s"`
	WallS     float64            `json:"wall_s"`
	Layers    map[string]float64 `json:"layers,omitempty"`

	// Filled in by the parent.
	traced bool
	rssMB  float64
}

var workloads = []string{"tcp-steady", "tcp-flood", "tcp-crash", "sim-capacity"}

// metric is one named figure of the summary.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer lists the summary metrics of a traced run with their units.
// Metrics that do not apply to a workload read 0.
var perLayer = []struct{ name, unit string }{
	{"wal.persist_p50_us", "us"},
	{"wal.persist_p99_us", "us"},
	{"wal.persists_per_slot", "count/slot"},
	{"wal.busy_share", "share"},
	{"transport.frames_per_slot", "count/slot"},
	{"transport.bytes_per_tx", "B/tx"},
	{"transport.send_p50_us", "us"},
	{"transport.frames_dropped", "count"},
	{"multishot.deliver_self_p50_us", "us"},
	{"multishot.deliver_self_p99_us", "us"},
	{"multishot.loop_busy_share", "share"},
	{"multishot.finalized_per_proposal", "share"},
	{"multishot.deliveries_per_slot", "count/slot"},
	{"blockchain.committed_per_drained", "share"},
	{"blockchain.drain_p50_us", "us"},
	{"blockchain.drain_p99_us", "us"},
	{"blockchain.depth_at_drain_p50", "count"},
	{"blockchain.txs_per_batch", "count"},
	{"blockchain.queue_wait_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"sweep.probes", "count"},
	{"scenario.probe_p50_ms", "ms"},
	{"sim.events_per_s", "1/s"},
	{"workload.schedule_ms", "ms"},
}

// faultLayer lists the fault-path metrics only tcp-crash reports.
var faultLayer = []struct{ name, unit string }{
	{"wal.load_ms", "ms"},
	{"multishot.catchup_slots_per_s", "1/s"},
	{"multishot.view_changes", "count"},
	{"transport.reconnects", "count"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tcp-steady, tcp-flood, tcp-crash or sim-capacity")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	walRoot := fs.String("wal-root", filepath.Join(".bench_build", "wal"), "directory for the replicas' WALs")
	child := fs.Bool("child", false, "run one trial and print its result (internal)")
	spawned := fs.Int64("spawned", 0, "parent's spawn time in Unix ns (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloads, *name) {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloads)
	}
	if *child {
		return runChild(*name, *seed, *trace == 1, *walRoot, time.Unix(0, *spawned), stdout)
	}
	return runParent(*name, *seed, *seconds, *trace == 1, *walRoot, stdout)
}

// runChild runs one trial in this process and prints its JSON result.
func runChild(name string, seed int64, traced bool, walRoot string, spawned time.Time, stdout io.Writer) error {
	var res *trialResult
	var err error
	if name == "sim-capacity" {
		res, err = runCapacity(traced, spawned)
	} else {
		dir := filepath.Join(walRoot, "trial-"+strconv.Itoa(os.Getpid()))
		defer os.RemoveAll(dir)
		res, err = runTCP(tcpShapes()[name], seed, traced, dir, spawned)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// trialTimeout bounds one child process.
const trialTimeout = 60 * time.Second

// runTrial runs one trial as a child process.
func runTrial(name string, seed int64, traced bool, walRoot string) (*trialResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), trialTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	spawned := time.Now()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", trace, "-wal-root", walRoot, "-spawned", strconv.FormatInt(spawned.UnixNano(), 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%s trial (seed %d) exceeded %v", name, seed, trialTimeout)
		}
		return nil, fmt.Errorf("%s trial (seed %d) failed: %w", name, seed, err)
	}
	var res trialResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s trial (seed %d): bad result: %w", name, seed, err)
	}
	res.traced = traced
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, nil
}

// runParent measures one workload for the given time and prints the
// report and the summary line.
func runParent(name string, seed int64, seconds int, traced bool, walRoot string, stdout io.Writer) error {
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %d  traced %v\n", name, seed, seconds, traced)
	fmt.Fprintf(stdout, "host: nproc %d  GOMAXPROCS %d  %s %s/%s  wal fs %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, walFS(walRoot))

	var primary []*trialResult
	start := time.Now()
	for k := 0; len(primary) == 0 || time.Since(start) < time.Duration(seconds)*time.Second; k++ {
		res, err := runTrial(name, trialSeed(seed, k), traced, walRoot)
		if err != nil {
			return err
		}
		printTrial(stdout, k, res)
		primary = append(primary, res)
	}
	// One trial of the other kind, for the tracing overhead.
	other, err := runTrial(name, trialSeed(seed, len(primary)), !traced, walRoot)
	if err != nil {
		return err
	}
	printTrial(stdout, len(primary), other)
	plain, withTrace := []*trialResult{other}, primary
	if !traced {
		plain, withTrace = primary, []*trialResult{other}
	}
	label, _ := mainFigure(name)
	fmt.Fprintf(stdout, "trace overhead: %+.1f%% on %s (traced vs untraced trials)\n",
		100*traceOverhead(name, plain, withTrace), label)

	summary := endToEndMetrics(name, primary)
	if traced {
		summary = layerMetrics(name, primary)
	} else {
		printWorkloadMetrics(stdout, name, primary, summary)
	}
	printSummaryTable(stdout, summary)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Attempted: len(primary) + 1, Failed: 0, Metrics: summary})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// trialSeed derives the k-th trial's input seed from the run seed.
func trialSeed(seed int64, k int) int64 { return seed*1000 + int64(k) + 1 }

func printTrial(w io.Writer, k int, t *trialResult) {
	kind := "untraced"
	if t.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "trial %d (%s): setup %.4fs rss %.1fMB offered %d committed %d ", k, kind, t.SetupS, t.rssMB, t.Offered, t.Committed)
	if t.PlanS > 0 {
		fmt.Fprintf(w, "plan %.3fs drain %.0ftx/s\n", t.PlanS, t.DrainTPS)
		return
	}
	fmt.Fprintf(w, "wall %.2fs p50 %.3fms p99 %.3fms drain %.0ftx/s outage %.1fms\n", t.WallS, t.P50MS, t.P99MS, t.DrainTPS, t.OutageMS)
}

// mainFigure names the figure the tracing overhead is measured on, and
// reads it from a trial as a cost (higher is worse).
func mainFigure(name string) (string, func(*trialResult) float64) {
	switch name {
	case "tcp-flood":
		return "drain_tps", func(t *trialResult) float64 { return 1 / t.DrainTPS }
	case "sim-capacity":
		return "plan_s", func(t *trialResult) float64 { return t.PlanS }
	case "tcp-crash":
		return "commit_p99_ms", func(t *trialResult) float64 { return t.P99MS }
	}
	return "commit_p50_ms", func(t *trialResult) float64 { return t.P50MS }
}

// traceOverhead is how much worse the main figure reads in traced trials
// than in untraced ones, as a share of the untraced median.
func traceOverhead(name string, plain, traced []*trialResult) float64 {
	_, cost := mainFigure(name)
	pick := func(ts []*trialResult) float64 {
		var vals []float64
		for _, t := range ts {
			vals = append(vals, cost(t))
		}
		return median(vals)
	}
	base := pick(plain)
	if base == 0 {
		return 0
	}
	return pick(traced)/base - 1
}

// layerMetrics folds the traced trials into the per-layer summary.
func layerMetrics(name string, trials []*trialResult) map[string]metric {
	layers := perLayer
	if name == "tcp-crash" {
		layers = append(slices.Clone(perLayer), faultLayer...)
	}
	out := make(map[string]metric, len(layers))
	for _, m := range layers {
		var vals []float64
		for _, t := range trials {
			vals = append(vals, t.Layers[m.name])
		}
		out[m.name] = metric{Value: median(vals), Unit: m.unit}
	}
	return out
}

// endToEndMetrics folds the untraced trials into the summary metrics.
// On tcp-* a unit of work is one transaction; on sim-capacity it is one
// whole capacity plan (the simulator commits simulated transactions, so
// throughput there counts them per wall-clock second).
func endToEndMetrics(name string, trials []*trialResult) map[string]metric {
	var p50, p99, tps, share, setup, rss, plans []float64
	for _, t := range trials {
		p50 = append(p50, t.P50MS)
		p99 = append(p99, t.P99MS)
		tps = append(tps, t.DrainTPS)
		share = append(share, float64(t.Committed)/float64(max(t.Offered, 1)))
		setup = append(setup, t.SetupS)
		rss = append(rss, t.rssMB)
		plans = append(plans, t.PlanS*1000)
	}
	lat50, lat99 := median(p50), median(p99)
	if name == "sim-capacity" {
		lat50, lat99 = nearestRank(plans, 50), nearestRank(plans, 99)
	}
	return map[string]metric{
		"latency_p50_ms":  {lat50, "ms"},
		"latency_p99_ms":  {lat99, "ms"},
		"throughput_tps":  {median(tps), "1/s"},
		"committed_share": {median(share), "share"},
		"setup_s":         {median(setup), "s"},
		"peak_rss_mb":     {median(rss), "MB"},
	}
}

// printWorkloadMetrics prints the workload's own end-to-end figures under
// their workload-specific names (medians over the untraced trials).
func printWorkloadMetrics(w io.Writer, name string, trials []*trialResult, e2e map[string]metric) {
	var samples, failed, outage []float64
	for _, t := range trials {
		samples = append(samples, float64(t.Committed))
		failed = append(failed, float64(t.Offered-t.Committed)/float64(max(t.Offered, 1)))
		outage = append(outage, t.OutageMS)
	}
	fmt.Fprintf(w, "%s end-to-end (median of %d trials):\n", name, len(trials))
	if name == "sim-capacity" {
		fmt.Fprintf(w, "  plan_s           %.4f s\n", e2e["latency_p50_ms"].Value/1000)
	} else {
		fmt.Fprintf(w, "  commit_p50_ms    %.3f ms (n=%.0f per trial)\n", e2e["latency_p50_ms"].Value, median(samples))
		fmt.Fprintf(w, "  commit_p99_ms    %.3f ms (n=%.0f per trial)\n", e2e["latency_p99_ms"].Value, median(samples))
		fmt.Fprintf(w, "  tx_failed_share  %.4f share\n", median(failed))
		fmt.Fprintf(w, "  outage_ms        %.1f ms\n", median(outage))
	}
	fmt.Fprintf(w, "  drain_tps        %.0f 1/s\n", e2e["throughput_tps"].Value)
	fmt.Fprintf(w, "  setup_s          %.4f s\n", e2e["setup_s"].Value)
	fmt.Fprintf(w, "  peak_rss_mb      %.1f MB\n", e2e["peak_rss_mb"].Value)
}

func printSummaryTable(w io.Writer, summary map[string]metric) {
	fmt.Fprintln(w, "summary:")
	for _, n := range slices.Sorted(maps.Keys(summary)) {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, summary[n].Value, summary[n].Unit)
	}
}

// walFS names the filesystem the WALs live on, from its statfs magic.
func walFS(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
