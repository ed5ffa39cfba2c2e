package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multiscalar/internal/grid"
	_ "multiscalar/internal/policy" // register the policy zoo
)

// TestGenerateEndpoint covers POST /v1/generate end to end: the response
// names a canonical gen: workload, the listing is deterministic across
// requests, and the name feeds back into /v1/partition under a policy.
func TestGenerateEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, grid.Options{Workers: 2}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := `{"generator":{"seed":42,"funcs":2,"blocks":20,"loop_depth":1}}`
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	var gr GenerateResponse
	if err := json.Unmarshal([]byte(body), &gr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(gr.Name, "gen:v") || !strings.Contains(gr.Name, ":s42:") {
		t.Errorf("name %q is not a canonical gen name for seed 42", gr.Name)
	}
	if gr.Funcs != 2 || gr.Blocks == 0 || gr.Instrs == 0 || gr.Program == "" {
		t.Errorf("empty shape summary: funcs=%d blocks=%d instrs=%d len(program)=%d",
			gr.Funcs, gr.Blocks, gr.Instrs, len(gr.Program))
	}
	// Same spec, byte-identical response: the seed→program guarantee over
	// the wire.
	if _, body2 := postJSON(t, ts.Client(), ts.URL+"/v1/generate", req); body2 != body {
		t.Error("repeated generate request not deterministic")
	}

	// The returned name is a workload everywhere else.
	resp, pbody := postJSON(t, ts.Client(), ts.URL+"/v1/partition",
		`{"workload":"`+gr.Name+`","select":{"policy":"knapsack","size_budget":32}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition by gen name: status %d body %s", resp.StatusCode, pbody)
	}
	var pr PartitionResponse
	if err := json.Unmarshal([]byte(pbody), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Workload != gr.Name || pr.Policy != "knapsack" || pr.Tasks == 0 {
		t.Errorf("partition response: %+v", pr)
	}
	if pr.Errors != 0 {
		t.Errorf("policy partition has verify errors: %+v", pr.Findings)
	}
}

// TestGeneratorInlineRequests covers the generator block inlined on
// /v1/partition and /v1/simulate, including the simulate response's cache
// key carrying the generated name.
func TestGeneratorInlineRequests(t *testing.T) {
	fastSim(t)
	srv, _ := newTestServer(t, grid.Options{Workers: 2}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/partition",
		`{"generator":{"seed":7},"select":{"heuristic":"cf"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: status %d body %s", resp.StatusCode, body)
	}
	var pr PartitionResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pr.Workload, ":s7:") || pr.Tasks == 0 || pr.Errors != 0 {
		t.Errorf("partition response: %+v", pr)
	}

	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/simulate",
		`{"generator":{"seed":7},"select":{"policy":"greedy"},"machine":{"pus":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d body %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Workload != pr.Workload || sr.Key == "" || sr.Result == nil {
		t.Errorf("simulate response: %+v", sr)
	}
}

// TestGeneratorAndPolicyValidation pins the new 4xx surface: conflicting
// program sources, unknown policies, negative budgets, and corpus bounds.
func TestGeneratorAndPolicyValidation(t *testing.T) {
	srv, eng, _ := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body, code string
	}{
		{"both sources", "/v1/partition", `{"workload":"compress","generator":{"seed":1}}`, "unknown_workload"},
		{"both sources simulate", "/v1/simulate", `{"workload":"compress","generator":{"seed":1}}`, "unknown_workload"},
		{"unknown policy", "/v1/partition", `{"workload":"compress","select":{"policy":"bogus"}}`, "invalid_request"},
		{"negative budget", "/v1/partition", `{"workload":"compress","select":{"policy":"greedy","size_budget":-1}}`, "invalid_request"},
		{"malformed gen name", "/v1/partition", `{"workload":"gen:v1:bogus"}`, "unknown_workload"},
		{"corpus bad policy", "/v1/experiment", `{"name":"corpus","policies":["bogus"]}`, "invalid_request"},
		{"corpus huge n", "/v1/experiment", `{"name":"corpus","n":100000}`, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil {
				t.Fatalf("error body not structured: %q (%v)", body, err)
			}
			if eb.Error.Code != tc.code {
				t.Errorf("code %q, want %q (message %q)", eb.Error.Code, tc.code, eb.Error.Message)
			}
		})
	}
	if jobs := eng.Stats().Jobs; jobs != 0 {
		t.Errorf("invalid requests reached the engine (jobs=%d)", jobs)
	}
}

// TestCorpusExperimentSSE runs the corpus sweep through the SSE experiment
// endpoint and checks the scoreboard rows arrive with every arm.
func TestCorpusExperimentSSE(t *testing.T) {
	fastSim(t)
	srv, _, _ := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/experiment",
		`{"name":"corpus","seed":3,"n":2,"policies":["greedy","roundrobin"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	events := readSSE(t, strings.NewReader(body), 0)
	if len(events) == 0 {
		t.Fatalf("empty stream")
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("terminal event %q, want result:\n%s", last.name, body)
	}
	var res ExperimentResult
	if err := json.Unmarshal([]byte(last.data), &res); err != nil {
		t.Fatal(err)
	}
	if res.Name != "corpus" || len(res.Corpus) != 5 {
		t.Fatalf("result name=%q rows=%d, want corpus/5", res.Name, len(res.Corpus))
	}
	arms := map[string]bool{}
	for _, row := range res.Corpus {
		arms[row.Arm] = true
		if row.Programs != 2 || row.Tasks == 0 {
			t.Errorf("row %+v looks empty", row)
		}
	}
	for _, want := range []string{"basic block", "control flow", "data dependence", "policy:greedy", "policy:roundrobin"} {
		if !arms[want] {
			t.Errorf("missing arm %q in %v", want, arms)
		}
	}
	if p := lastProgress(t, events); p.JobsDone == 0 {
		t.Errorf("last progress event shows no work: %+v", p)
	}
}
