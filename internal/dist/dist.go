// Package dist is the distribution layer of the experiment grid: it lets
// one sweep fan out over a fleet of worker processes with no shared memory
// between them, coordinated entirely over HTTP.
//
// Three pieces compose:
//
//   - A tiered grid.Cache (Tiered): disk → remote HTTP backend
//     (RemoteCache) speaking GET/PUT-by-key against an mssrv -cache-dir
//     peer. Every tier is strictly fail-open — a remote timeout, corrupt
//     artifact, or stale schema is a miss, never an error — so cache
//     infrastructure can only make runs slower, not wrong.
//
//   - A Scheduler: one FIFO queue of leased jobs. It implements
//     grid.Dispatcher, so the leader's engine hands every cache-missing
//     simulation to it; workers (remote processes and the leader's own
//     RunLocal loop) pull from the head of the queue and hold time-bounded
//     leases — a worker that dies mid-job is reaped and its jobs go back to
//     the head of the queue for the next puller.
//
//   - The worker protocol: a Leader mounts the scheduler over HTTP
//     (/v1/dist/register, /v1/dist/pull, /v1/dist/report, /healthz) and a
//     Worker (mssrv -worker) registers, pulls jobs, executes them through
//     its own grid.Engine — resolving the partition→simulate dependency
//     locally — and reports each result once. The report is the only way a
//     remote result reaches the leader, whose engine stores it in the
//     leader's own cache tiers.
//
// Determinism is preserved end to end: the scheduler only decides *where* a
// job runs, the experiment layer still collects results into caller-indexed
// slots, and the simulator itself is deterministic, so distributed output is
// byte-identical to the serial harness.
package dist
