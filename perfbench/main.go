// Command perfbench is the repository benchmark. It owns the traffic from
// outside the program: unshaped NICs that one generator goroutine feeds
// with nic.InjectFromWire and drains with nic.DrainToWire, every 64-byte
// frame carrying an in-band flow, sequence number and timestamp. Each
// workload runs a closed phase (a fixed in-flight window) and an open phase
// (a fixed offered rate, frames timed from when they were due), checks
// every delivered frame, and prints its metrics by name with units. The
// last line of standard output is one JSON object with the result.
//
//	go run . --workload highway-chain --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics instead: layer counters read at window boundaries, and spans
// timed around the layers' public functions while the workload's own frame
// sequence is replayed through them. The spans are written to
// .bench_build/spans/ when the run ends.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// closedShare is the part of --seconds the closed phase gets; the open
// phase gets the rest.
const closedShare = 0.6

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds (closed and open phase together)")
	trace := fs.Int("trace", 0, "1 = per-layer metrics and spans instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	closedDur := time.Duration(float64(*seconds) * closedShare * float64(time.Second))
	openDur := time.Duration(*seconds)*time.Second - closedDur
	printStamp(w, *seed, *trace == 1, closedDur, openDur)

	m, err := measure(w, *seed, closedDur, openDur, *trace == 1)
	if err != nil {
		return err
	}
	res := result{
		Correct:   m.violations == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("frames: attempted %d, delivered %d, refused %d, failed %d, violations %d\n",
		m.attempted, m.attempted-m.failed, m.refused, m.failed, m.violations)
	fmt.Printf("loss_frac = %.6g frac (failed / attempted over the whole run)\n", float64(m.failed)/float64(m.attempted))
	if *trace == 0 {
		res.Metrics = m.endToEnd
	} else {
		res.Metrics = m.perLayer
	}
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Printf("%s = %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d correctness violations", m.violations)
	}
	return nil
}

// printStamp records the host and the run: every number names its host.
func printStamp(w *workload, seed uint64, trace bool, closedDur, openDur time.Duration) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Printf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("run: workload %s, seed %d, trace %v, rev %s, %d set-ups, %d trials each with a %v warm-up, closed %v (window %d frames), open %v (%.0f frames/s); 64-byte frames, 1 PMD\n",
		w.name, seed, trace, rev, setupOnly+w.trials, w.trials, w.warmUp, closedDur/time.Duration(w.trials), w.window, openDur/time.Duration(w.trials), w.lightPps)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
