package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"time"

	nlft "repro"
	"repro/internal/shard"
)

// The sharded workload re-executes this binary as its worker process;
// these variables carry the coordinator URL and the tracing switch
// into the child.
const (
	workerEnv      = "PERFBENCH_WORKER"
	workerTraceEnv = "PERFBENCH_WORKER_TRACE"
)

// workerTimeout bounds one worker process, so a stuck campaign fails
// the run instead of hanging it.
const workerTimeout = 120 * time.Second

// shardedBench is the sharded workload: the campaign workload's spec
// submitted over loopback HTTP to an in-process shard.Coordinator and
// drained by one single-slot worker process.
type shardedBench struct {
	seed uint64
	sz   sizes
	exe  string
	// want is the serial campaign's digest at the same seed and trial
	// count, the value every sharded result must reproduce.
	want string
}

func newShardedBench(seed uint64, sz sizes) (bench, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res, err := nlft.RunCampaign(stdWorkload(), nlft.CampaignConfig{Trials: sz.Trials, Seed: seed, Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("serial reference campaign: %w", err)
	}
	return &shardedBench{seed: seed, sz: sz, exe: exe, want: fmt.Sprintf("%#x", res.Digest())}, nil
}

func (s *shardedBench) setup() (time.Duration, error) {
	r, err := runSharded(s.exe, shardSpec(s.seed, 1), false)
	return r.ttr, err
}

func (s *shardedBench) rep() (repResult, error) {
	r, err := runSharded(s.exe, shardSpec(s.seed, s.sz.Trials), false)
	if err != nil {
		return repResult{}, err
	}
	if r.digest != s.want {
		return repResult{}, fmt.Errorf("sharded digest %s, serial campaign %s", r.digest, s.want)
	}
	return repResult{ttr: r.ttr, cpu: r.cpu, work: s.sz.Trials, heap: r.heap}, nil
}

func (s *shardedBench) checks() map[string]string {
	return map[string]string{"campaign_digest": s.want}
}

// shardSpec is the campaign workload's configuration as a sharded
// campaign spec (standard ECC workload, default lease size).
func shardSpec(seed uint64, trials int) shard.CampaignSpec {
	return shard.CampaignSpec{Trials: trials, Seed: seed, ECC: true}
}

// shardRun is one sharded campaign as the benchmark saw it.
type shardRun struct {
	ttr    time.Duration // coordinator start to fetched summary
	cpu    time.Duration // benchmark process plus worker process
	heap   uint64        // coordinator process live heap, campaign retained
	digest string
	worker *workerReport // traced runs only
}

// runSharded starts a coordinator on a loopback port, submits spec over
// HTTP, runs one worker process until the campaign is drained, and
// fetches the summary. The coordinator is shut down and the worker
// waited for before it returns.
func runSharded(exe string, spec shard.CampaignSpec, traced bool) (r shardRun, err error) {
	cpu0 := cpuTime()
	t0 := time.Now()
	coord := shard.NewCoordinator(shard.CoordinatorOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		http.DefaultClient.CloseIdleConnections()
	}()
	base := "http://" + ln.Addr().String()
	client := &shard.Client{Base: base}
	id, err := client.Submit(spec)
	if err != nil {
		return r, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), workerTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd.Env = append(os.Environ(), workerEnv+"="+base, workerTraceEnv+"="+trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("worker process: %w", err)
	}
	sum, err := client.Summary(id)
	if err != nil {
		return r, err
	}
	r.ttr = time.Since(t0)
	ps := cmd.ProcessState
	r.cpu = cpuTime() - cpu0 + ps.UserTime() + ps.SystemTime()
	r.digest = sum.Digest
	r.heap = retainedHeap()
	runtime.KeepAlive(coord)
	if traced {
		r.worker = &workerReport{}
		if err := json.Unmarshal(out.Bytes(), r.worker); err != nil {
			return r, fmt.Errorf("worker report: %w", err)
		}
	}
	return r, nil
}

// workerMain is the worker process: lease and complete ranges until
// the coordinator has no more work. Traced, it times every call on the
// shard.Transport and prints a workerReport on standard output.
func workerMain(base string, traced bool, stdout, stderr io.Writer) int {
	var tt *timedTransport
	var transport shard.Transport = &shard.Client{Base: base}
	if traced {
		tt = &timedTransport{inner: transport, tr: newTracer("worker")}
		transport = tt
	}
	w := &shard.Worker{Transport: transport, Name: fmt.Sprintf("perfbench-%d", os.Getpid()), Parallelism: 1}
	for {
		var id int
		if tt != nil {
			id = tt.tr.begin("shard.runone", 0)
			tt.parent = id
		}
		worked, err := w.RunOne()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench worker:", err)
			return 1
		}
		if !worked {
			if tt != nil {
				tt.tr.drop(id)
			}
			break
		}
		if tt != nil {
			tt.tr.end(id)
		}
	}
	if tt == nil {
		return 0
	}
	rep := &workerReport{EpochUnixNs: tt.tr.epoch.UnixNano(), Spans: tt.tr.spans,
		FrameBytes: tt.frameBytes, Trials: tt.trials}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// workerReport is what a traced worker process measured: its spans,
// on its own clock, and the completion bytes it sent.
type workerReport struct {
	EpochUnixNs int64  `json:"epoch_unix_ns"`
	Spans       []span `json:"spans"`
	FrameBytes  int64  `json:"frame_bytes"`
	Trials      int    `json:"trials"`
}

// timedTransport wraps the worker's shard.Transport with spans.
// Worker.RunOne calls Lease, runs the engine, then Complete, all on its
// own goroutine, so the interval between a granted lease and the
// matching Complete call is the engine's (fault.engine). Heartbeats
// pass straight through.
type timedTransport struct {
	inner  shard.Transport
	tr     *tracer
	parent int // the current shard.runone span

	leaseEnd   time.Time
	frameBytes int64
	trials     int
}

func (t *timedTransport) Lease(worker string) (*shard.Lease, error) {
	id := t.tr.begin("shard.lease", t.parent)
	l, err := t.inner.Lease(worker)
	if l == nil || err != nil {
		t.tr.drop(id)
		return l, err
	}
	t.tr.end(id)
	t.leaseEnd = time.Now()
	t.trials += l.Hi - l.Lo
	return l, nil
}

func (t *timedTransport) Heartbeat(leaseID string) error { return t.inner.Heartbeat(leaseID) }

func (t *timedTransport) Complete(leaseID string, body io.Reader) error {
	t.tr.add("fault.engine", t.parent, t.leaseEnd, time.Now())
	id := t.tr.begin("shard.complete", t.parent)
	cr := &countingReader{r: body}
	err := t.inner.Complete(leaseID, cr)
	t.tr.end(id)
	t.frameBytes += cr.n
	return err
}

// countingReader counts the completion-frame bytes the transport sends.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
