package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/dist"
	"multiscalar/internal/experiment"
	"multiscalar/internal/grid"
	"multiscalar/internal/serve"
	"multiscalar/internal/sim"
)

func TestParsePUs(t *testing.T) {
	good, err := parsePUs([]string{"4", "8", "16"})
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 3 || good[0] != 4 || good[1] != 8 || good[2] != 16 {
		t.Errorf("parsePUs = %v", good)
	}
	if out, err := parsePUs(nil); err != nil || out != nil {
		t.Errorf("empty list: %v, %v", out, err)
	}
	// Sscanf-style trailing junk must be rejected, not truncated.
	for _, bad := range []string{"4x", "8.5", "0x4", "", "-2", "0", "four"} {
		if _, err := parsePUs([]string{bad}); err == nil {
			t.Errorf("parsePUs(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), bad) {
			t.Errorf("parsePUs(%q) error does not quote the token: %v", bad, err)
		}
	}
}

func TestParseCorpus(t *testing.T) {
	cases := []struct {
		in   string
		seed int64
		n    int
	}{
		{"seed:100", 1, 100},
		{"42:50", 42, 50},
		{"-7:1", -7, 1},
	}
	for _, c := range cases {
		seed, n, err := parseCorpus(c.in)
		if err != nil || seed != c.seed || n != c.n {
			t.Errorf("parseCorpus(%q) = %d, %d, %v; want %d, %d", c.in, seed, n, err, c.seed, c.n)
		}
	}
	for _, bad := range []string{"", "100", "seed", "seed:", ":100", "seed:0", "seed:-5", "1:2:3", "s1:10", "seed:10x", "4x:10"} {
		if _, _, err := parseCorpus(bad); err == nil {
			t.Errorf("parseCorpus(%q) accepted", bad)
		}
	}
}

// TestCorpusSummary pins the stderr accounting line — a warm rerun reports
// "0 simulated" in it — and checks it composes with fitStatus like every
// other status line msreport emits.
func TestCorpusSummary(t *testing.T) {
	spec := experiment.CorpusSpec{Seed: 1, N: 50, Policies: []string{"greedy", "knapsack"}}
	s := grid.Stats{Jobs: 250, Done: 250, Sims: 0, CacheHits: 250}
	line := corpusSummary(spec, s)
	want := "corpus: 50 programs x 5 arms = 250 jobs (0 simulated, 250 cache hits)"
	if line != want {
		t.Errorf("corpusSummary = %q, want %q", line, want)
	}
	// The summary line passes through fitStatus unharmed on a normal
	// terminal, and truncates instead of wrapping on a narrow one.
	if got := fitStatus(line, 0, 120); got != line {
		t.Errorf("fitStatus(wide) altered the line: %q", got)
	}
	if got := fitStatus(line, 0, 20); got != line[:19] {
		t.Errorf("fitStatus(narrow) = %q, want %q", got, line[:19])
	}
	// Clearing a previous longer progress line pads with spaces.
	if got := fitStatus(line, len(line)+4, 120); got != line+"    " {
		t.Errorf("fitStatus(clear) = %q", got)
	}
}

func TestFitStatus(t *testing.T) {
	// Pads to cover the previous (longer) line.
	if got := fitStatus("short", 10, 0); got != "short     " {
		t.Errorf("fitStatus pad = %q", got)
	}
	// Truncates to width-1 so the line never wraps.
	if got := fitStatus("0123456789", 0, 8); got != "0123456" {
		t.Errorf("fitStatus truncate = %q", got)
	}
	// Truncation and padding compose: a narrow terminal with a long
	// previous line still clears exactly the previous width.
	if got := fitStatus("0123456789", 12, 8); got != "0123456     " {
		t.Errorf("fitStatus truncate+pad = %q", got)
	}
	// No-op when the line already fits and nothing needs clearing.
	if got := fitStatus("ok", 2, 80); got != "ok" {
		t.Errorf("fitStatus noop = %q", got)
	}
}

func TestTermWidth(t *testing.T) {
	t.Setenv("COLUMNS", "120")
	if got := termWidth(); got != 120 {
		t.Errorf("termWidth = %d, want 120", got)
	}
	t.Setenv("COLUMNS", "bogus")
	if got := termWidth(); got != 0 {
		t.Errorf("termWidth(bogus) = %d, want 0", got)
	}
	t.Setenv("COLUMNS", "")
	if got := termWidth(); got != 0 {
		t.Errorf("termWidth(unset) = %d, want 0", got)
	}
}

func TestValidateWorkloads(t *testing.T) {
	if err := validateWorkloads([]string{"compress", "tomcatv"}); err != nil {
		t.Errorf("known workloads rejected: %v", err)
	}
	if err := validateWorkloads(nil); err != nil {
		t.Errorf("empty subset rejected: %v", err)
	}
	err := validateWorkloads([]string{"compress", "comprss"})
	if err == nil {
		t.Fatal("typo accepted")
	}
	for _, want := range []string{`"comprss"`, "known:", "compress", "tomcatv"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRemoteCacheFailOpenLogged: a run whose -remote-cache peer serves no
// cache still computes its result, and logs one remote_cache_failopen
// warning for the refused load and one for the refused put.
func TestRemoteCacheFailOpenLogged(t *testing.T) {
	peer := httptest.NewServer(serve.New(serve.Config{Engine: grid.New(grid.Options{Workers: 1})}).Handler())
	defer peer.Close()
	var logs bytes.Buffer
	cache, remote := buildCache("", peer.URL, nil, &logs)
	eng := grid.New(grid.Options{Workers: 1, Cache: cache})
	job := grid.Job{Workload: "fpppp", Select: core.Options{Heuristic: core.BasicBlock}, Config: sim.DefaultConfig(2)}
	if _, err := eng.Run(job); err != nil {
		t.Fatal(err)
	}
	if st := remote.Stats(); st != (dist.RemoteStats{Misses: 1, Errors: 2}) {
		t.Errorf("remote stats = %+v, want 1 miss and 2 errors", st)
	}
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log = %q, want two fail-open lines", logs.String())
	}
	for i, op := range []string{"op=load", "op=put"} {
		for _, want := range []string{"msreport ", "msg=remote_cache_failopen", op} {
			if !strings.Contains(lines[i], want) {
				t.Errorf("log line %q missing %q", lines[i], want)
			}
		}
	}
}
