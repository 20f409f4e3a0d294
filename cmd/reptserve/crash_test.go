package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rept"
	"rept/internal/exper"
	"rept/internal/gen"
	"rept/internal/wal"
)

// crashBinary builds the real reptserve binary once per test run; the
// crash tests exercise the actual process (flags, recovery banner,
// SIGKILL) rather than an in-process handler.
var crashBinary struct {
	once sync.Once
	path string
	err  error
}

func buildReptserve(t *testing.T) string {
	t.Helper()
	crashBinary.once.Do(func() {
		dir, err := os.MkdirTemp("", "reptserve-crash-*")
		if err != nil {
			crashBinary.err = err
			return
		}
		bin := filepath.Join(dir, "reptserve")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			crashBinary.err = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		crashBinary.path = bin
	})
	if crashBinary.err != nil {
		t.Fatal(crashBinary.err)
	}
	return crashBinary.path
}

// crashServer is one spawned reptserve process.
type crashServer struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	errsMu sync.Mutex
	errs   bytes.Buffer
}

// stderrText snapshots the captured stderr (the capture goroutine may
// still be draining the pipe).
func (cs *crashServer) stderrText() string {
	cs.errsMu.Lock()
	defer cs.errsMu.Unlock()
	return cs.errs.String()
}

// startCrashServer spawns reptserve on a kernel-chosen port and waits
// for the "listening on" banner to learn the address.
func startCrashServer(t *testing.T, bin string, args ...string) *crashServer {
	t.Helper()
	cs := &crashServer{}
	cs.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cs.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			cs.errsMu.Lock()
			cs.errs.WriteString(line + "\n")
			cs.errsMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := line[i+len("listening on "):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case addrC <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrC:
		cs.base = "http://" + addr
	case <-time.After(10 * time.Second):
		cs.cmd.Process.Kill()
		cs.cmd.Wait()
		t.Fatalf("reptserve did not announce its address; stderr:\n%s", cs.stderrText())
	}
	return cs
}

// kill SIGKILLs the process and reaps it.
func (cs *crashServer) kill() {
	cs.cmd.Process.Kill()
	cs.cmd.Wait()
}

// shutdown SIGTERMs the process and waits for a clean exit.
func (cs *crashServer) shutdown(t *testing.T) {
	t.Helper()
	cs.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cs.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("reptserve exited uncleanly: %v\nstderr:\n%s", err, cs.stderrText())
		}
	case <-time.After(15 * time.Second):
		cs.cmd.Process.Kill()
		<-done
		t.Fatalf("reptserve did not exit on SIGTERM; stderr:\n%s", cs.stderrText())
	}
}

// crashStream builds the deterministic, loop-free, well-formed churn
// stream every crash-kill round uses.
func crashStream(seed uint64) []rept.Update {
	base := gen.Shuffle(gen.HolmeKim(600, 5, 0.4, 31), seed)
	return exper.DynStream(base, exper.DynOptions{Pattern: exper.Churn, DeleteFrac: 0.3, Seed: seed})
}

// updatesNDJSON renders a batch of signed events as /edges lines.
func updatesNDJSON(ups []rept.Update) string {
	var b strings.Builder
	for _, up := range ups {
		if up.Del {
			fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"op\":\"del\"}\n", up.U, up.V)
		} else {
			fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d}\n", up.U, up.V)
		}
	}
	return b.String()
}

// TestCrashKillRecovery is the durability acceptance test: it streams a
// dynamic workload into a real reptserve process running a write-ahead
// log in per-batch sync mode, SIGKILLs it mid-ingest at a seeded point
// (with compaction enabled, so the kill can land mid-compaction too),
// restarts it on the same log directory, and asserts that
//
//   - every event acknowledged over HTTP before the kill survived, and
//   - the recovered estimator state is bit-for-bit the state of a fresh
//     reference estimator fed exactly the recovered prefix.
func TestCrashKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	bin := buildReptserve(t)
	for _, seed := range []uint64{3, 11, 27} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashKillRound(t, bin, seed)
		})
	}
}

func runCrashKillRound(t *testing.T, bin string, seed uint64) {
	walDir := filepath.Join(t.TempDir(), "wal")
	args := []string{
		"-m", "3", "-c", "9", "-shards", "3", "-seed", "7",
		"-local", "-dynamic",
		"-wal-dir", walDir, "-wal-sync", "batch",
		"-wal-segment-bytes", "8192", "-wal-compact-every", "1500",
	}
	cs := startCrashServer(t, bin, args...)
	defer cs.kill() // no-op if already dead

	ups := crashStream(seed)
	const reqLen = 120
	// The kill fires concurrently after killAt acknowledged requests, so
	// it lands while a later request is mid-flight. Derive killAt from
	// the seed to vary the crash point across rounds.
	killAt := int(10 + seed%17)
	killed := make(chan struct{})
	var acked uint64
	sent := 0
	reqs := 0
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < len(ups); i += reqLen {
		end := i + reqLen
		if end > len(ups) {
			end = len(ups)
		}
		resp, err := client.Post(cs.base+"/edges", "application/x-ndjson",
			strings.NewReader(updatesNDJSON(ups[i:end])))
		if err != nil {
			// The kill raced this request; its events carry no receipt.
			break
		}
		var ir ingestResponse
		decErr := json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			break
		}
		if !ir.Durable {
			t.Fatal("ingest response does not report durable=true under -wal-dir")
		}
		acked += uint64(ir.Accepted)
		sent = end
		reqs++
		if reqs == killAt {
			go func() { cs.kill(); close(killed) }()
		}
	}
	if reqs < killAt {
		t.Fatalf("stream exhausted after %d requests before the seeded kill point %d", reqs, killAt)
	}
	<-killed

	// Restart on the same log directory and let recovery run.
	cs2 := startCrashServer(t, bin, args...)
	defer cs2.kill()
	var stats struct {
		Processed uint64        `json:"processed"`
		WAL       *walStatsJSON `json:"wal"`
	}
	resp, err := client.Get(cs2.base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	k := stats.Processed
	if k < acked {
		t.Fatalf("recovered %d events but %d were acknowledged before the kill: ACKed data lost", k, acked)
	}
	if k > uint64(sent)+reqLen {
		t.Fatalf("recovered %d events, more than the %d ever sent", k, sent+reqLen)
	}
	if stats.WAL == nil {
		t.Fatal("/stats has no wal block under -wal-dir")
	}
	if stats.WAL.DurablePos != k {
		t.Fatalf("recovered wal durable position %d != processed %d", stats.WAL.DurablePos, k)
	}

	// Bit-for-bit: checkpoint the recovered server and compare the log's
	// checkpoint file against a reference estimator hand-fed exactly the
	// recovered prefix.
	cresp, err := client.Post(cs2.base+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint on the recovered server: status %d", cresp.StatusCode)
	}
	got, err := os.ReadFile(filepath.Join(walDir, wal.CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rept.NewConcurrent(rept.ConcurrentConfig{
		M: 3, C: 9, Shards: 3, Seed: 7,
		TrackLocal: true, FullyDynamic: true, TrackDegrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.ApplyAll(ups[:k])
	var want bytes.Buffer
	if err := ref.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("recovered state at position %d differs bit-for-bit from the hand-replayed reference", k)
	}
	cs2.shutdown(t)
}

// TestCrashKillRestartChain kills the server twice in a row (the second
// crash interrupts a server that itself recovered from a crash) and
// verifies recovery still lands on a consistent prefix — segment chains
// written across restarts must splice.
func TestCrashKillRestartChain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	bin := buildReptserve(t)
	walDir := filepath.Join(t.TempDir(), "wal")
	args := []string{
		"-m", "2", "-c", "4", "-seed", "5", "-dynamic",
		"-wal-dir", walDir, "-wal-sync", "batch", "-wal-segment-bytes", "4096",
	}
	ups := crashStream(91)
	client := &http.Client{Timeout: 10 * time.Second}
	const reqLen = 150
	var acked uint64
	pos := 0
	for round := 0; round < 2; round++ {
		cs := startCrashServer(t, bin, args...)
		for r := 0; r < 6 && pos < len(ups); r++ {
			end := pos + reqLen
			if end > len(ups) {
				end = len(ups)
			}
			resp, err := client.Post(cs.base+"/edges", "application/x-ndjson",
				strings.NewReader(updatesNDJSON(ups[pos:end])))
			if err != nil {
				break
			}
			var ir ingestResponse
			decErr := json.NewDecoder(resp.Body).Decode(&ir)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decErr != nil {
				break
			}
			acked += uint64(ir.Accepted)
			pos = end
		}
		cs.kill()
	}
	cs := startCrashServer(t, bin, args...)
	defer cs.kill()
	var stats struct {
		Processed uint64 `json:"processed"`
	}
	resp, err := client.Get(cs.base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Processed != acked {
		t.Fatalf("recovered %d events after two crashes, %d were acknowledged", stats.Processed, acked)
	}
	cs.shutdown(t)
}
