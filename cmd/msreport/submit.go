package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"multiscalar/internal/experiment"
	"multiscalar/internal/serve"
)

// buildSubmitRequest maps the report flags onto the async experiment job
// body. Only the experiments the server runs whole are submittable: chart,
// ablations, and all are client-side compositions of several runs, so they
// stay local.
func buildSubmitRequest(which, corpusArg string, policies, names []string, pus []int) (serve.ExperimentRequest, error) {
	if corpusArg != "" {
		seed, n, err := parseCorpus(corpusArg)
		if err != nil {
			return serve.ExperimentRequest{}, err
		}
		return serve.ExperimentRequest{Name: "corpus", Seed: seed, N: n, Policies: policies}, nil
	}
	switch which {
	case "fig5", "table1", "summary":
		return serve.ExperimentRequest{Name: which, Workloads: names, PUs: pus}, nil
	}
	return serve.ExperimentRequest{}, fmt.Errorf(
		"-submit runs one server-side experiment: fig5, table1, summary, or -corpus (not %q)", which)
}

// runSubmit is msreport as a thin job client: POST the experiment to an
// mssrv's /v1/experiment, which submits (or joins) the job and streams its
// event log, and print the terminal result with the same formatters a local
// run uses to stdout; the job's ID goes to stderr. Submitting the same flags
// twice joins the finished job, whose stored log replays at once. If ctx
// ends first, the job is canceled with a best-effort DELETE, so the server
// stops burning runner time on a sweep nobody will read.
func runSubmit(ctx context.Context, stdout, stderr io.Writer, base, apiKey string, req serve.ExperimentRequest) error {
	base = strings.TrimRight(base, "/")
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	post, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/experiment", bytes.NewReader(body))
	if err != nil {
		return err
	}
	post.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		post.Header.Set("X-Api-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(post)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	loc := resp.Header.Get("Location")
	id := strings.TrimPrefix(loc, "/v1/jobs/")
	fmt.Fprintf(stderr, "submitted job %s\n", id)

	name, data, err := terminalEvent(resp.Body)
	if ctx.Err() != nil {
		// A fresh context: ours is done.
		delCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		del, _ := http.NewRequestWithContext(delCtx, http.MethodDelete, base+loc, nil)
		if resp, err := http.DefaultClient.Do(del); err == nil {
			resp.Body.Close()
		}
		return ctx.Err()
	}
	if err != nil {
		return fmt.Errorf("job %s: %w", id, err)
	}
	if name == "error" {
		var e struct{ Code, Message string }
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("job %s: decode error event: %w", id, err)
		}
		return fmt.Errorf("job %s %s: %s", id, e.Code, e.Message)
	}
	return printJobResult(stdout, req, data)
}

// terminalEvent reads an SSE stream up to its terminal event — result or
// error — and returns that event's name and data.
func terminalEvent(r io.Reader) (name string, data []byte, err error) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			return "", nil, errors.New("stream ended before the job finished")
		}
		if err != nil {
			return "", nil, err
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			name = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")) && (name == "result" || name == "error"):
			return name, line[len("data: "):], nil
		}
	}
}

// printJobResult renders the async result with the local run's formatters,
// so `msreport -submit URL` and plain `msreport` are diffable.
func printJobResult(out io.Writer, req serve.ExperimentRequest, raw []byte) error {
	var res serve.ExperimentResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	var text string
	switch req.Name {
	case "fig5":
		text = experiment.FormatFigure5(res.Cells)
	case "table1":
		text = experiment.FormatTable1(res.Rows)
	case "summary":
		text = experiment.FormatSummary(res.Summaries)
	case "corpus":
		spec := experiment.CorpusSpec{Seed: req.Seed, N: req.N, Policies: req.Policies}
		text = experiment.FormatCorpus(spec, res.Corpus)
	default:
		// Future kinds fall back to the raw payload rather than guessing.
		text = string(bytes.TrimSpace(raw)) + "\n"
	}
	_, err := io.WriteString(out, text)
	return err
}
