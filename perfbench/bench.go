package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// bench is the state of one benchmark run: its configuration, the metrics
// measured so far with their sample counts, the operation ledger and the
// correctness violations. Every method is called from the driving
// goroutine only.
type bench struct {
	cfg        config
	log        io.Writer
	prov       map[string]any
	metrics    map[string]float64
	samples    map[string]int
	attempted  int64
	failed     int64
	violations []string
	rec        *recorder // nil on untraced runs
	decomp     []decompRow

	// Quiet-host filtering (see host.go).
	stealShares       []float64
	discardedSegments int
	discardedOps      int
}

func newBench(cfg config, log io.Writer) *bench {
	b := &bench{
		cfg:     cfg,
		log:     log,
		metrics: map[string]float64{},
		samples: map[string]int{},
	}
	if cfg.trace {
		b.rec = newRecorder()
	}
	return b
}

// set records a metric with the number of samples it summarizes.
func (b *bench) set(name string, v float64, n int) {
	b.metrics[name] = v
	b.samples[name] = n
}

// violate records a correctness failure: the run will report
// "correct": false and exit non-zero.
func (b *bench) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.violations) < 100 {
		b.violations = append(b.violations, msg)
		fmt.Fprintf(b.log, "perfbench: VIOLATION: %s\n", msg)
	}
}

// op records the outcome of one user operation.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// window returns the timed-window length: the full -seconds on untraced
// runs, half of it on traced runs, which also spend time in the probes.
func (b *bench) window() time.Duration {
	s := b.cfg.seconds
	if b.cfg.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// report prints every reported metric with its unit and sample count, and
// the decomposition table of a traced run, to the log.
func (b *bench) report(defs []metricDef) {
	fmt.Fprintf(b.log, "perfbench: workload=%s seed=%d trace=%v attempted=%d failed=%d timing segments=%d discarded=%d (%d ops) for host steal > %.0f%%\n",
		b.cfg.workload, b.cfg.seed, b.cfg.trace, b.attempted, b.failed,
		len(b.stealShares), b.discardedSegments, b.discardedOps, 100*maxStealShare)
	for _, d := range defs {
		if v, ok := b.metrics[d.name]; ok {
			fmt.Fprintf(b.log, "  %-28s %14.6g %-6s n=%d\n", d.name, v, d.unit, b.samples[d.name])
		}
	}
	if len(b.decomp) > 0 {
		fmt.Fprintf(b.log, "decomposition (%s, traced run):\n", b.cfg.workload)
		for _, r := range b.decomp {
			fmt.Fprintf(b.log, "  %-34s %10.4f ms  %6.1f%%\n", r.Name, r.Ms, 100*r.Share)
		}
	}
}

// writeRecord stores the run's provenance, metrics, sample counts,
// violations, decomposition and (traced runs) spans under the output
// directory.
func (b *bench) writeRecord(res *result) error {
	if err := os.MkdirAll(b.cfg.outDir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", b.cfg.workload, b.cfg.seed, map[bool]int{false: 0, true: 1}[b.cfg.trace])
	type rec struct {
		Provenance        map[string]any     `json:"provenance"`
		Result            *result            `json:"result"`
		All               map[string]float64 `json:"all_metrics"`
		Samples           map[string]int     `json:"samples"`
		Violations        []string           `json:"violations"`
		Decomp            []decompRow        `json:"decomposition,omitempty"`
		StealShares       []float64          `json:"segment_steal_shares"`
		DiscardedSegments int                `json:"discarded_segments"`
		DiscardedOps      int                `json:"discarded_ops"`
	}
	data, err := json.MarshalIndent(rec{b.prov, res, b.metrics, b.samples, b.violations, b.decomp,
		b.stealShares, b.discardedSegments, b.discardedOps}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.cfg.outDir, stem+".json"), data, 0o644); err != nil {
		return err
	}
	if b.rec == nil {
		return nil
	}
	path := filepath.Join(b.cfg.outDir, stem+".trace.json")
	if err := b.rec.writeChrome(path, b.prov); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "perfbench: %d spans written to %s\n", b.rec.len(), path)
	return nil
}

// provenance stamps the host and build the run measured: processor count,
// GOMAXPROCS, Go version, commit (or a digest of the sources when the
// checkout is not a git repository), CPU model, cache sizes and seed.
func provenance(cfg config) (map[string]any, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, fmt.Errorf("hashing sources: %w", err)
	}
	p := map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        gitCommit(),
		"source_sha256": digest,
		"cpu_model":     cpuModel(),
		"time_utc":      time.Now().UTC().Format(time.RFC3339),
	}
	for level, size := range cacheSizes() {
		p[level] = size
	}
	return p, nil
}

// sourceDigest hashes every Go source and module file under root (the
// repository root the benchmark runs from), in path order, so a record
// identifies the code it measured even in a checkout without git
// metadata. Hidden directories, the build output among them, are skipped.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitCommit returns HEAD when the working directory is itself a git
// checkout; the benchmark's usual checkout is not one.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the processor model from /proc/cpuinfo (Linux only).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's unified and data cache sizes from sysfs, keyed
// "cache_L<level>" (Linux only; empty elsewhere).
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			data, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(data))
		}
		if t := read("type"); t == "Instruction" {
			continue
		}
		if level, size := read("level"), read("size"); level != "" && size != "" {
			out["cache_L"+level] = size
		}
	}
	return out
}
