package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func specFor(kind, body string) Spec {
	return Spec{Kind: kind, Payload: json.RawMessage(body)}
}

func TestIDForStability(t *testing.T) {
	a := IDFor(specFor("simulate", `{"workload":"compress"}`))
	b := IDFor(specFor("simulate", `{"workload":"compress"}`))
	if a != b {
		t.Fatalf("same spec hashed to %s and %s", a, b)
	}
	if err := ValidateID(a); err != nil {
		t.Fatalf("IDFor produced an invalid id: %v", err)
	}
	if c := IDFor(specFor("partition", `{"workload":"compress"}`)); c == a {
		t.Fatal("different kinds collided on one id")
	}
	if c := IDFor(specFor("simulate", `{"workload":"go"}`)); c == a {
		t.Fatal("different payloads collided on one id")
	}
}

func TestSubmitLifecycle(t *testing.T) {
	var calls atomic.Int64
	m, err := NewManager(Options{
		Runners: 2,
		Executors: map[string]Executor{
			"echo": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				calls.Add(1)
				return map[string]string{"ok": "yes"}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	rec, created, err := m.Submit("alice", specFor("echo", `{"n":1}`))
	if err != nil || !created {
		t.Fatalf("Submit = (%+v, %v, %v), want created", rec, created, err)
	}
	if rec.State != StateQueued || rec.Tenant != "alice" {
		t.Fatalf("fresh record = %+v", rec)
	}
	waitFor(t, "job done", func() bool {
		r, ok := m.Get(rec.ID)
		return ok && r.State == StateDone
	})
	got, _ := m.Get(rec.ID)
	if string(got.Result) != `{"ok":"yes"}` {
		t.Fatalf("result %s", got.Result)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts %d, want 1", got.Attempts)
	}

	// Warm resubmission: same spec answers from the record, runs nothing.
	again, created, err := m.Submit("bob", specFor("echo", `{"n":1}`))
	if err != nil || created {
		t.Fatalf("resubmit = created %v err %v, want shared", created, err)
	}
	if again.State != StateDone || string(again.Result) != `{"ok":"yes"}` {
		t.Fatalf("resubmit record %+v", again)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executor ran %d times, want 1", n)
	}

	if _, _, err := m.Submit("alice", specFor("nope", `{}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestConcurrentSubmitShares(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	m, err := NewManager(Options{
		Runners: 4,
		Executors: map[string]Executor{
			"gate": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				calls.Add(1)
				<-release
				return "done", nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	first, created, _ := m.Submit("a", specFor("gate", `{}`))
	if !created {
		t.Fatal("first submit did not create")
	}
	waitFor(t, "running", func() bool {
		r, _ := m.Get(first.ID)
		return r.State == StateRunning
	})
	second, created, _ := m.Submit("b", specFor("gate", `{}`))
	if created || second.ID != first.ID {
		t.Fatalf("second submit created=%v id=%s, want shared %s", created, second.ID, first.ID)
	}
	close(release)
	waitFor(t, "done", func() bool {
		r, _ := m.Get(first.ID)
		return r.State == StateDone
	})
	if n := calls.Load(); n != 1 {
		t.Fatalf("executor ran %d times for two tenants, want 1", n)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	m, err := NewManager(Options{
		Runners: 1, // one runner so the second job must queue
		Executors: map[string]Executor{
			"gate": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				started <- string(spec.Payload)
				select {
				case <-release:
					return "done", nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	running, _, _ := m.Submit("a", specFor("gate", `{"n":1}`))
	<-started
	queued, _, _ := m.Submit("a", specFor("gate", `{"n":2}`))

	// Cancel the queued job: it must never start.
	rec, ok := m.Cancel(queued.ID)
	if !ok || rec.State != StateCanceled {
		t.Fatalf("cancel queued = %+v ok=%v", rec, ok)
	}
	evs, _, terminal, _ := m.EventsSince(queued.ID, 0)
	if !terminal || len(evs) != 1 || evs[0].Name != "error" {
		t.Fatalf("queued-cancel events %+v terminal=%v", evs, terminal)
	}

	// Cancel the running job: the executor's ctx ends and it finalizes.
	if _, ok := m.Cancel(running.ID); !ok {
		t.Fatal("cancel running: not found")
	}
	waitFor(t, "running job canceled", func() bool {
		r, _ := m.Get(running.ID)
		return r.State == StateCanceled
	})

	// A canceled job can be resubmitted for a fresh attempt.
	close(release)
	re, created, _ := m.Submit("a", specFor("gate", `{"n":2}`))
	if !created || re.State != StateQueued {
		t.Fatalf("resubmit after cancel = %+v created=%v", re, created)
	}
	waitFor(t, "resubmitted job done", func() bool {
		r, _ := m.Get(re.ID)
		return r.State == StateDone
	})
	if r, _ := m.Get(re.ID); r.Attempts != 1 {
		t.Fatalf("attempts after requeue %d, want 1 (first attempt never ran)", r.Attempts)
	}
	// The retry's stream holds only its own result, numbered on from the
	// canceled attempt's error event: a watcher joining from zero must not
	// read the old attempt's end as this one's.
	evs, _, _, _ = m.EventsSince(re.ID, 0)
	if len(evs) != 1 || evs[0].Name != "result" || evs[0].Seq != 2 {
		t.Fatalf("retry stream %+v, want one result event with seq 2", evs)
	}
}

// TestCancelBetweenDequeueAndRun plays the runner by hand: a DELETE that
// lands after a runner dequeued the job but before run() took the lock must
// still cancel it, and run() must then skip it.
func TestCancelBetweenDequeueAndRun(t *testing.T) {
	var calls atomic.Int64
	m, err := NewManager(Options{
		Executors: map[string]Executor{
			"echo": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				calls.Add(1)
				return "ran", nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	rec, _, _ := m.Submit("a", specFor("echo", `{}`))
	id, _, ok := m.queue.dequeue()
	if !ok || id != rec.ID {
		t.Fatalf("dequeue = %q ok=%v, want %s", id, ok, rec.ID)
	}
	if got, _ := m.Cancel(id); got.State != StateCanceled {
		t.Fatalf("Cancel after dequeue = %s, want canceled", got.State)
	}
	m.run(context.Background(), id)
	if got, _ := m.Get(id); got.State != StateCanceled {
		t.Fatalf("final state %s, want canceled", got.State)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("executor ran %d times after the cancel, want 0", n)
	}
}

func TestFailureAndEvents(t *testing.T) {
	m, err := NewManager(Options{
		Runners: 1,
		Executors: map[string]Executor{
			"flaky": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				emit("progress", map[string]int{"step": 1})
				emit("progress", map[string]int{"step": 2})
				return nil, fmt.Errorf("boom")
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	rec, _, _ := m.Submit("a", specFor("flaky", `{}`))
	waitFor(t, "failed", func() bool {
		r, _ := m.Get(rec.ID)
		return r.State == StateFailed
	})
	got, _ := m.Get(rec.ID)
	if got.Error != "boom" {
		t.Fatalf("error %q", got.Error)
	}
	evs, _, terminal, ok := m.EventsSince(rec.ID, 0)
	if !ok || !terminal {
		t.Fatalf("events ok=%v terminal=%v", ok, terminal)
	}
	if len(evs) != 3 || evs[0].Name != "progress" || evs[2].Name != "error" {
		t.Fatalf("events %+v", evs)
	}
	for i, e := range evs {
		if e.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d, want contiguous from 1", i, e.Seq)
		}
	}
	// Resume mid-stream: only events after the cursor come back.
	tail, _, _, _ := m.EventsSince(rec.ID, 2)
	if len(tail) != 1 || tail[0].Seq != 3 {
		t.Fatalf("EventsSince(2) = %+v", tail)
	}
}

// TestJournalResumeAfterCrash simulates a kill -9: a journal-backed manager
// starts a job and is abandoned (never closed) mid-execution; a second
// manager on the same directory must replay the journal, re-offer the job,
// and complete it.
func TestJournalResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()
	blocked := make(chan struct{})
	a, err := NewManager(Options{
		Runners: 1,
		Dir:     dir,
		Executors: map[string]Executor{
			"work": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				close(blocked)
				<-ctx.Done() // hangs until the "crashed" manager is torn down
				return nil, ctx.Err()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	actx, acancel := context.WithCancel(context.Background())
	rec, _, err := a.Submit("alice", specFor("work", `{"sweep":"fig5"}`))
	if err != nil {
		t.Fatal(err)
	}
	a.Start(actx)
	<-blocked // the journal now holds the job in state running

	// "Crash": no Close, no graceful anything. Open the successor on the
	// same directory while the first manager still holds its file handle.
	b, err := NewManager(Options{
		Runners: 1,
		Dir:     dir,
		Executors: map[string]Executor{
			"work": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				return map[string]string{"resumed": "yes"}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		acancel()
		a.Close()
		b.Close()
	})
	if got, ok := b.Get(rec.ID); !ok || got.State != StateQueued {
		t.Fatalf("replayed record = %+v ok=%v, want queued", got, ok)
	}
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	b.Start(bctx)
	waitFor(t, "replayed job done", func() bool {
		r, _ := b.Get(rec.ID)
		return r.State == StateDone
	})
	got, _ := b.Get(rec.ID)
	if string(got.Result) != `{"resumed":"yes"}` {
		t.Fatalf("result %s", got.Result)
	}
	if got.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (the killed attempt counts: attempts survive the journal)", got.Attempts)
	}
}

// TestOldCursorAfterRestart: event numbers restart with each process, so a
// client that resumes with a Last-Event-ID from before a restart must still
// reach the job's terminal event — for a job that finished before the
// restart (its stream is then the one replayed terminal event) and for one
// the restart requeued (its stream is then the new attempt's).
func TestOldCursorAfterRestart(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	mk := func(second bool) *Manager {
		m, err := NewManager(Options{
			Runners: 1,
			Dir:     dir,
			Executors: map[string]Executor{
				"done": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
					for i := 0; i < 3; i++ {
						emit("progress", i)
					}
					return "finished", nil
				},
				"requeued": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
					emit("progress", "new attempt")
					if !second {
						for i := 0; i < 4; i++ {
							emit("progress", i)
						}
						<-ctx.Done() // the shutdown requeues it
						return nil, ctx.Err()
					}
					<-release
					return "resumed", nil
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := mk(false)
	actx, acancel := context.WithCancel(context.Background())
	a.Start(actx)
	done, _, _ := a.Submit("alice", specFor("done", `{}`))
	requeued, _, _ := a.Submit("alice", specFor("requeued", `{}`))
	waitFor(t, "first attempts", func() bool {
		evs, _, _, _ := a.EventsSince(requeued.ID, 0)
		r, _ := a.Get(done.ID)
		return len(evs) == 5 && r.State == StateDone
	})
	acancel()
	a.Close()

	b := mk(true)
	t.Cleanup(b.Close)
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	b.Start(bctx)
	hasResult := func(evs []Event) bool {
		return len(evs) > 0 && evs[len(evs)-1].Name == "result"
	}
	// The finished job: its old stream ran to seq 4; every cursor a client
	// can hold from it (it never saw the result) still gets the result.
	for after := int64(0); after <= 4; after++ {
		evs, _, terminal, _ := b.EventsSince(done.ID, after)
		if !terminal || !hasResult(evs) {
			t.Errorf("finished job, old cursor %d: %+v terminal=%v, want the result", after, evs, terminal)
		}
	}
	// The requeued job: the old cursor 5 is past the new attempt's stream,
	// so it reads that stream from its start, then its result.
	waitFor(t, "new attempt started", func() bool {
		evs, _, _, _ := b.EventsSince(requeued.ID, 0)
		return len(evs) == 1
	})
	if evs, _, terminal, _ := b.EventsSince(requeued.ID, 5); terminal || len(evs) != 1 || evs[0].Seq != 1 {
		t.Errorf("running job, old cursor 5: %+v terminal=%v, want the new attempt's event 1", evs, terminal)
	}
	close(release)
	waitFor(t, "requeued job done", func() bool {
		r, _ := b.Get(requeued.ID)
		return r.State == StateDone
	})
	for after := int64(0); after <= 5; after++ {
		evs, _, terminal, _ := b.EventsSince(requeued.ID, after)
		if !terminal || !hasResult(evs) || string(evs[len(evs)-1].Data) != `"resumed"` {
			t.Errorf("requeued job, old cursor %d: %+v terminal=%v, want the new result", after, evs, terminal)
		}
	}
}

// TestTerminalResultSurvivesRestart proves the other half of durability: a
// finished job's result is served after a restart without re-running
// anything.
func TestTerminalResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	mk := func() *Manager {
		m, err := NewManager(Options{
			Runners: 1,
			Dir:     dir,
			Executors: map[string]Executor{
				"echo": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
					calls.Add(1)
					return "first", nil
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := mk()
	ctx, cancel := context.WithCancel(context.Background())
	a.Start(ctx)
	rec, _, _ := a.Submit("alice", specFor("echo", `{}`))
	waitFor(t, "done", func() bool {
		r, _ := a.Get(rec.ID)
		return r.State == StateDone
	})
	cancel()
	a.Close()

	b := mk()
	t.Cleanup(b.Close)
	got, created, err := b.Submit("bob", specFor("echo", `{}`))
	if err != nil || created {
		t.Fatalf("post-restart resubmit created=%v err=%v, want cached", created, err)
	}
	if got.State != StateDone || string(got.Result) != `"first"` {
		t.Fatalf("post-restart record %+v", got)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executor ran %d times across restart, want 1", n)
	}
	// The replayed job's stream is its terminal event, so a watcher that
	// joins after the restart still reads the result.
	evs, _, terminal, _ := b.EventsSince(rec.ID, 0)
	if !terminal || len(evs) != 1 || evs[0].Name != "result" || string(evs[0].Data) != `"first"` {
		t.Fatalf("post-restart stream %+v terminal=%v, want the one result event", evs, terminal)
	}
}

// TestGracefulCloseRequeues: a Close (or Start-ctx cancellation) mid-run
// journals the job back to queued instead of failing it.
// TestJournalNeverLagsVisibleState: replay is last-wins, so a job seen done
// must already be done in the journal. The probe polls each of 200 no-op
// jobs until Get says done, then replays the journal at once: a state
// published before its line is durable, or a queued line that lands after
// the runner's lines, would bring the job back as queued or running and run
// it again after a restart.
func TestJournalNeverLagsVisibleState(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{
		Runners: 1,
		Dir:     dir,
		Executors: map[string]Executor{
			"noop": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) { return nil, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	lagging := 0
	for i := 0; i < 200; i++ {
		rec, _, err := m.Submit("alice", specFor("noop", fmt.Sprintf(`{"n":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		// Spin rather than poll: the stale window is one fsync wide.
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			if r, _ := m.Get(rec.ID); r.State == StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never finished", i)
			}
		}
		recs, err := replayJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.ID == rec.ID && r.State != StateDone {
				lagging++
				t.Errorf("job %d is done in memory but %s in the journal", i, r.State)
			}
		}
	}
	if lagging > 0 {
		t.Fatalf("%d of 200 done jobs replay in a stale state", lagging)
	}
}

func TestGracefulCloseRequeues(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	a, err := NewManager(Options{
		Runners: 1,
		Dir:     dir,
		Executors: map[string]Executor{
			"work": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				close(started)
				<-ctx.Done()
				return nil, ctx.Err()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rec, _, _ := a.Submit("alice", specFor("work", `{}`))
	a.Start(ctx)
	<-started
	cancel()
	a.Close()
	if got, _ := a.Get(rec.ID); got.State != StateQueued {
		t.Fatalf("state after graceful close = %s, want queued", got.State)
	}

	// The journal agrees: a fresh replay sees it queued.
	recs, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != StateQueued {
		t.Fatalf("journal replay = %+v, want one queued record", recs)
	}
}

func TestJournalTolerantOfTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: IDFor(specFor("echo", `{}`)), Spec: specFor("echo", `{}`),
		Tenant: "a", State: StateDone, Created: time.Now().UTC(), Result: json.RawMessage(`"ok"`)}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	j.close()
	// Simulate a crash mid-write: a torn, unterminated JSON fragment.
	f, err := os.OpenFile(journalPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":1,"record":{"id":"abc`)
	f.Close()

	recs, err := replayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != rec.ID || recs[0].State != StateDone {
		t.Fatalf("replay over torn tail = %+v", recs)
	}
}

// TestJournalTornAtEveryOffset cuts a journal holding one job's queued,
// running and done lines at every byte of its last line. Only the cut that
// drops just the newline leaves the done line whole; every other cut must
// bring the job back queued, and once it re-runs the journal must replay
// as that one job, done.
func TestJournalTornAtEveryOffset(t *testing.T) {
	echo := map[string]Executor{
		"echo": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) { return "ok", nil },
	}
	src := t.TempDir()
	m, err := NewManager(Options{Runners: 1, Dir: src, Executors: echo})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	rec, _, _ := m.Submit("a", specFor("echo", `{}`))
	waitFor(t, "done", func() bool {
		r, _ := m.Get(rec.ID)
		return r.State == StateDone
	})
	m.Close()
	full, err := os.ReadFile(journalPath(src))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(full, []byte("\n")); n != 3 {
		t.Fatalf("journal has %d lines, want queued, running, done", n)
	}
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1

	for cut := last; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(Options{Runners: 1, Dir: dir, Executors: echo})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := StateQueued
		if cut == len(full)-1 {
			want = StateDone
		}
		if got, _ := m.Get(rec.ID); got.State != want {
			m.Close()
			t.Fatalf("cut %d of %d: replayed %s, want %s", cut, len(full), got.State, want)
		}
		m.Start(ctx)
		waitFor(t, "re-run", func() bool {
			r, _ := m.Get(rec.ID)
			return r.State == StateDone
		})
		m.Close()
		recs, err := replayJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].ID != rec.ID || recs[0].State != StateDone {
			t.Fatalf("cut %d: second replay %+v, want one done record", cut, recs)
		}
	}
}

func TestEvictionKeepsLiveJobs(t *testing.T) {
	release := make(chan struct{})
	m, err := NewManager(Options{
		Runners: 2, // gate holds one runner; fast jobs flow through the other
		MaxJobs: 3,
		Executors: map[string]Executor{
			"fast": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) { return "x", nil },
			"gate": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				select {
				case <-release:
					return "x", nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	gate, _, _ := m.Submit("a", specFor("gate", `{}`))
	var done []string
	for i := 0; i < 4; i++ {
		rec, _, _ := m.Submit("a", specFor("fast", fmt.Sprintf(`{"n":%d}`, i)))
		done = append(done, rec.ID)
		waitFor(t, "fast job settled", func() bool {
			r, ok := m.Get(rec.ID)
			return ok && r.State.Terminal()
		})
	}
	// Terminal jobs above the bound were evicted; the live gate job never is.
	if _, ok := m.Get(gate.ID); !ok {
		t.Fatal("live job evicted")
	}
	var kept int
	for _, id := range done {
		if _, ok := m.Get(id); ok {
			kept++
		}
	}
	if kept > 3 {
		t.Fatalf("kept %d terminal jobs with MaxJobs=3", kept)
	}
	close(release)
	waitFor(t, "gate done", func() bool {
		r, _ := m.Get(gate.ID)
		return r.State == StateDone
	})
	if got := m.Stats(); got.Done == 0 {
		t.Fatalf("stats %+v", got)
	}
}

func TestStats(t *testing.T) {
	release := make(chan struct{})
	m, err := NewManager(Options{
		Runners: 1,
		Executors: map[string]Executor{
			"gate": func(ctx context.Context, spec Spec, emit EmitFunc) (any, error) {
				<-release
				return "x", nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	a, _, _ := m.Submit("t", specFor("gate", `{"n":1}`))
	waitFor(t, "running", func() bool {
		r, _ := m.Get(a.ID)
		return r.State == StateRunning
	})
	m.Submit("t", specFor("gate", `{"n":2}`))
	s := m.Stats()
	if s.Running != 1 || s.Queued != 1 {
		t.Fatalf("stats %+v, want 1 running 1 queued", s)
	}
	if s.OldestQueued <= 0 {
		t.Fatalf("oldest queued age %v, want > 0", s.OldestQueued)
	}
	close(release)
	waitFor(t, "all done", func() bool { return m.Stats().Done == 2 })
}
