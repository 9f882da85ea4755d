package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"zkphire/internal/faultinject"
	"zkphire/internal/journal"
	"zkphire/internal/service"
)

// TestClusterNodeChild is not a test of its own: TestClusterSoak re-execs
// the test binary with this filter to get real, separately-killable
// coordinator and worker processes. The role and its wiring come from the
// environment; the child serves until the parent kills it.
func TestClusterNodeChild(t *testing.T) {
	role := os.Getenv("ZKPHIRE_CLUSTER_NODE")
	if role == "" {
		t.Skip("cluster re-exec child; driven by TestClusterSoak")
	}
	if err := faultinject.ArmFromEnv(); err != nil {
		t.Fatal(err)
	}

	var handler http.Handler
	switch role {
	case "coordinator":
		jnl, err := journal.Open(os.Getenv("ZKPHIRE_CLUSTER_JOURNAL"))
		if err != nil {
			t.Fatalf("child journal: %v", err)
		}
		defer jnl.Close()
		c, err := New(Config{
			SRS:               testSRS,
			Journal:           jnl,
			HeartbeatInterval: 100 * time.Millisecond,
			EvictAfter:        400 * time.Millisecond,
			LeaseTimeout:      20 * time.Second,
			MaxAttempts:       20,
			DefaultTimeout:    30 * time.Second,
		})
		if err != nil {
			t.Fatalf("child coordinator: %v", err)
		}
		defer c.Close()
		if n, err := c.StartRecovery(); err != nil {
			t.Fatalf("child recover: %v", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "child coordinator: re-dispatching %d journaled job(s)\n", n)
		}
		handler = c.Handler()
	case "worker":
		svc, err := service.New(service.Config{SRS: testSRS, Workers: 2, MaxInflight: 2, QueueDepth: 8})
		if err != nil {
			t.Fatalf("child service: %v", err)
		}
		defer svc.Close()
		w, err := NewWorker(WorkerConfig{
			Service:        svc,
			CoordinatorURL: os.Getenv("ZKPHIRE_CLUSTER_COORD"),
		})
		if err != nil {
			t.Fatalf("child worker: %v", err)
		}
		defer w.Close()
		// Serve first, then join: the advertised address must be dialable
		// before the coordinator learns it.
		l := listenChild(t)
		serveChild(t, l, w.Handler())
		w.SetAdvertiseURL("http://" + l.Addr().String())
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := w.Start(ctx); err != nil {
			t.Fatalf("child join: %v", err)
		}
		writeAddrFile(t, l.Addr().String())
		select {} // killed by the parent
	default:
		t.Fatalf("unknown ZKPHIRE_CLUSTER_NODE=%q", role)
	}

	// Coordinator path: fixed address so the parent (and the workers) can
	// find it across restarts.
	l, err := net.Listen("tcp", os.Getenv("ZKPHIRE_CLUSTER_ADDR"))
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	serveChild(t, l, handler)
	writeAddrFile(t, l.Addr().String())
	select {} // killed by the parent
}

func listenChild(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	return l
}

func serveChild(t *testing.T, l net.Listener, h http.Handler) {
	t.Helper()
	srv := &http.Server{Handler: h}
	go srv.Serve(l) // child process; torn down by SIGKILL, nothing to join
}

// writeAddrFile publishes the bound address atomically (write + rename)
// so the parent never reads a half-written file.
func writeAddrFile(t *testing.T, addr string) {
	t.Helper()
	path := os.Getenv("ZKPHIRE_CLUSTER_ADDRFILE")
	if path == "" {
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// lockedBuffer is a bytes.Buffer safe to read while the exec copier
// goroutine is still writing (a killed child's pipe drains concurrently
// with the test's failure dump).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// soakNode is one child process plus its captured output.
type soakNode struct {
	name string
	cmd  *exec.Cmd
	out  *lockedBuffer
}

func startNode(t *testing.T, name string, env map[string]string) *soakNode {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestClusterNodeChild$", "-test.v")
	cmd.Env = os.Environ()
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	out := &lockedBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	n := &soakNode{name: name, cmd: cmd, out: out}
	t.Cleanup(func() { n.kill() })
	return n
}

func (n *soakNode) kill() {
	if n.cmd.Process != nil {
		n.cmd.Process.Kill()
	}
	n.cmd.Wait()
}

// freePort reserves a port by binding and releasing it; the coordinator
// children re-bind it, which is what lets the restart reuse the address.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitAddrFile(t *testing.T, path string) string {
	t.Helper()
	var addr string
	waitFor(t, "addr file "+path, func() bool {
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			return false
		}
		addr = string(data)
		return true
	})
	return addr
}

func waitHealthy(t *testing.T, baseURL string, workers int) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	waitFor(t, fmt.Sprintf("%s healthy with %d workers", baseURL, workers), func() bool {
		resp, err := client.Get(baseURL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var h ClusterHealth
		if json.NewDecoder(resp.Body).Decode(&h) != nil {
			return false
		}
		return resp.StatusCode == http.StatusOK && h.WorkersLive >= workers
	})
}

// TestClusterSoak is the acceptance harness for the distributed daemon:
// a real coordinator process and three real worker processes (one behind
// an injected flaky network), a batch of keyed clients, and targeted
// murder mid-batch — a worker SIGKILLed and replaced, then the
// coordinator itself SIGKILLed and restarted on the same address and
// journal. Every key must settle exactly once with proof bytes identical
// to the single-node golden run, and the post-mortem journal must agree.
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}

	golden := goldenProof(t, 5)
	dir := t.TempDir()
	jpath := filepath.Join(dir, "cluster.journal")
	coordAddr := freePort(t)
	coordURL := "http://" + coordAddr

	coordEnv := func() map[string]string {
		return map[string]string{
			"ZKPHIRE_CLUSTER_NODE":     "coordinator",
			"ZKPHIRE_CLUSTER_ADDR":     coordAddr,
			"ZKPHIRE_CLUSTER_JOURNAL":  jpath,
			"ZKPHIRE_CLUSTER_ADDRFILE": filepath.Join(dir, "coord.addr"),
		}
	}
	workerEnv := func(name, faults string) map[string]string {
		env := map[string]string{
			"ZKPHIRE_CLUSTER_NODE":     "worker",
			"ZKPHIRE_CLUSTER_COORD":    coordURL,
			"ZKPHIRE_CLUSTER_ADDRFILE": filepath.Join(dir, name+".addr"),
		}
		if faults != "" {
			env[faultinject.EnvVar] = faults
			env[faultinject.EnvSeedVar] = "7"
		}
		return env
	}

	nodes := make(map[string]*soakNode)
	dumpOnFailure := func() {
		if t.Failed() {
			for name, n := range nodes {
				t.Logf("--- %s output ---\n%s", name, n.out.String())
			}
		}
	}
	defer dumpOnFailure()

	nodes["coord1"] = startNode(t, "coord1", coordEnv())
	waitHealthy(t, coordURL, 0)
	nodes["w1"] = startNode(t, "w1", workerEnv("w1", ""))
	nodes["w2"] = startNode(t, "w2", workerEnv("w2", ""))
	// w3 lives behind a lossy network: dropped heartbeats (eviction +
	// rejoin), refused dispatches, and failed circuit fetches, all of
	// which must degrade into re-dispatch — never lost or duplicated jobs.
	nodes["w3"] = startNode(t, "w3", workerEnv("w3",
		"cluster.heartbeat:error:0.6,cluster.dispatch:error:0.3,cluster.fetch:error:0.3"))
	waitAddrFile(t, filepath.Join(dir, "w1.addr"))
	waitAddrFile(t, filepath.Join(dir, "w2.addr"))
	waitAddrFile(t, filepath.Join(dir, "w3.addr"))
	waitHealthy(t, coordURL, 3)

	// Register through the cluster API so the spec lands in the journal's
	// circuit store (that is what coordinator restarts replicate from).
	client := &http.Client{Timeout: 20 * time.Second}
	specData, err := json.Marshal(cubicSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	var circuitID string
	waitFor(t, "circuit registration", func() bool {
		resp, err := client.Post(coordURL+"/circuits", "application/json", bytes.NewReader(specData))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var reg service.RegisterResponse
		if json.Unmarshal(raw, &reg) != nil {
			return false
		}
		circuitID = reg.CircuitID
		return true
	})

	// The batch: 12 clients × 3 keyed jobs each. Clients retry through
	// anything — connection refused during the coordinator restart, 429,
	// 503, 504 — because the idempotency key makes re-POSTing safe.
	const clients, jobsPerClient = 12, 3
	keys := make([]string, 0, clients*jobsPerClient)
	var wg sync.WaitGroup
	errs := make(chan error, clients*jobsPerClient)
	for ci := 0; ci < clients; ci++ {
		for ji := 0; ji < jobsPerClient; ji++ {
			keys = append(keys, fmt.Sprintf("soak-%d-%d", ci, ji))
		}
	}
	proveKey := func(key string) error {
		body, _ := json.Marshal(service.ProveRequest{CircuitID: circuitID, IdempotencyKey: key})
		deadline := time.Now().Add(90 * time.Second)
		last := "no response"
		for attempt := 0; ; attempt++ {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: no proof after %d attempts (last: %s)", key, attempt, last)
			}
			resp, err := client.Post(coordURL+"/prove", "application/json", bytes.NewReader(body))
			if err != nil {
				last = err.Error()
				time.Sleep(150 * time.Millisecond)
				continue
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				last = fmt.Sprintf("%d %s", resp.StatusCode, bytes.TrimSpace(raw))
				time.Sleep(150 * time.Millisecond)
				continue
			}
			var pr service.ProveResponse
			if err := json.Unmarshal(raw, &pr); err != nil {
				return fmt.Errorf("%s: decode: %v", key, err)
			}
			proof, err := base64.StdEncoding.DecodeString(pr.Proof)
			if err != nil {
				return fmt.Errorf("%s: proof base64: %v", key, err)
			}
			if !bytes.Equal(proof, golden) {
				return fmt.Errorf("%s: proof differs from the single-node golden run", key)
			}
			return nil
		}
	}
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for ji := 0; ji < jobsPerClient; ji++ {
				// Stagger so the batch is in flight across the whole chaos
				// window rather than finishing before the first kill.
				time.Sleep(time.Duration(ci*40+ji*250) * time.Millisecond)
				if err := proveKey(fmt.Sprintf("soak-%d-%d", ci, ji)); err != nil {
					errs <- err
				}
			}
		}(ci)
	}

	// Chaos, while the batch runs: kill a worker, replace it, then kill
	// and restart the coordinator itself on the same address + journal.
	time.Sleep(400 * time.Millisecond)
	t.Log("chaos: SIGKILL worker w1")
	nodes["w1"].kill()
	time.Sleep(300 * time.Millisecond)
	t.Log("chaos: starting replacement worker w4")
	nodes["w4"] = startNode(t, "w4", workerEnv("w4", ""))
	waitAddrFile(t, filepath.Join(dir, "w4.addr"))
	time.Sleep(500 * time.Millisecond)
	t.Log("chaos: SIGKILL coordinator")
	nodes["coord1"].kill()
	time.Sleep(300 * time.Millisecond)
	t.Log("chaos: restarting coordinator on the same address and journal")
	nodes["coord2"] = startNode(t, "coord2", coordEnv())
	waitHealthy(t, coordURL, 1) // workers rejoin via heartbeat 404 → fresh join

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Post-mortem: kill every process, open the journal cold, and check
	// the durable record agrees with what the clients saw — every key
	// done exactly once with the golden bytes, nothing pending, nothing
	// failed. (Completions are journaled before the client sees a proof,
	// so SIGKILLing the coordinator here cannot lose acknowledged state.)
	for _, n := range nodes {
		n.kill()
	}
	jnl, err := journal.Open(jpath)
	if err != nil {
		t.Fatalf("post-mortem journal open: %v", err)
	}
	defer jnl.Close()
	if tb := jnl.Stats().TruncatedBytes; tb > 0 {
		t.Logf("post-mortem open truncated a %d-byte torn tail", tb)
	}
	for _, key := range keys {
		rec, ok := jnl.Lookup(key)
		if !ok {
			t.Fatalf("post-mortem: key %s missing from the journal", key)
		}
		if rec.State != journal.StateDone {
			t.Fatalf("post-mortem: key %s state = %v, want done", key, rec.State)
		}
		if !bytes.Equal(rec.Proof, golden) {
			t.Fatalf("post-mortem: key %s journaled proof differs from the golden bytes", key)
		}
	}
	if p := jnl.Pending(); len(p) != 0 {
		t.Fatalf("post-mortem: %d job(s) still pending: %+v", len(p), p)
	}
	t.Logf("soak: %d keyed jobs settled exactly once across %d processes (1 worker kill, 1 coordinator kill)", len(keys), len(nodes))
}
