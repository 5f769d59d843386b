package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"actop/internal/actor"
)

// TestActopdCluster drives a real three-server loopback-TCP cluster of
// actopd processes through one-shot -call clients, each a fresh process
// that is not a member. Every key is written by one client and read back by
// another, then one server is SIGKILLed and every key must still be
// answered by fresh clients whose -peers still name it.
//
// The keys are chosen so that a client that counted itself a member would
// own their directory records: client ports sort after the servers', and
// every key's owner index in a four-member view (homeIndex) is 3. Such a
// client would place every key on itself, and the write would be lost when
// the process exits.
func TestActopdCluster(t *testing.T) {
	const (
		keys     = 24
		hbIvl    = "200ms"
		snapIvl  = 200 * time.Millisecond
		clientTO = 20 * time.Second
	)
	dir := t.TempDir()
	bin := filepath.Join(dir, "actopd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Reserve every address up front and hand the three that sort first to
	// the servers. Each client gets its own address: a reused one would
	// meet the servers' stale connections to the client before it.
	addrs := reserveAddrs(t, 3+3*keys)
	servers, clients := addrs[:3], addrs[3:]
	peers := strings.Join(servers, ",")
	procs := make([]*exec.Cmd, len(servers))
	for i, a := range servers {
		logPath := filepath.Join(dir, fmt.Sprintf("server-%d.log", i))
		procs[i] = startServer(t, bin, logPath, a, peers, hbIvl, snapIvl)
	}

	var (
		clientMu sync.Mutex
		next     int
	)
	call := func(key, method, value string) (string, error) {
		clientMu.Lock()
		listen := clients[next]
		next++
		clientMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), clientTO)
		defer cancel()
		args := []string{"-listen", listen, "-peers", peers, "-heartbeat-interval", hbIvl,
			"-call", "kv/" + key, "-method", method}
		if method == "Put" {
			args = append(args, "-value", value)
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return "", fmt.Errorf("%s %s via %s: %v: %s", method, key, listen, err, strings.TrimSpace(stderr.String()))
		}
		return strings.TrimSpace(stdout.String()), nil
	}

	var ks []string
	for i := 0; len(ks) < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		if homeIndex(actor.Ref{Type: "kv", Key: k}, 4) == 3 {
			ks = append(ks, k)
		}
	}
	want := func(k string) string { return "v-" + k }
	for _, k := range ks {
		if _, err := call(k, "Put", want(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Every read is a turn past the snapshot interval, so each key captures
	// a snapshot that the kill below could recover.
	time.Sleep(2 * snapIvl)
	for _, k := range ks {
		got, err := call(k, "Get", "")
		if err != nil {
			t.Fatal(err)
		}
		if got != want(k) {
			t.Fatalf("Get %s from a second client = %q, want %q", k, got, want(k))
		}
	}

	time.Sleep(3 * snapIvl)
	victim := procs[1]
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		kept  int
		fails []string
		sem   = make(chan struct{}, 4)
	)
	for _, k := range ks {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			got, err := call(k, "Get", "")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				fails = append(fails, err.Error())
			case got == want(k):
				kept++
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		t.Error("after the kill: " + f)
	}
	// Surviving the kill is not asserted: a durable actor that had no
	// capturing turn before its host died comes back empty.
	t.Logf("after killing %s, %d of %d keys kept their value", servers[1], kept, len(ks))
}

// homeIndex is the index of ref's static directory owner among n sorted
// members: the runtime's directoryOwner, splitmix64's finalizer over the
// ref's hash, modulo n.
func homeIndex(ref actor.Ref, n uint64) uint64 {
	x := uint64(ref.Vertex())
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return (x ^ x>>31) % n
}

// reserveAddrs returns n free loopback addresses, sorted as node ids sort.
// The listeners close at once; each address is taken again by the process
// it is handed to.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	ls := make([]net.Listener, n)
	out := make([]string, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i], out[i] = l, l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	sort.Strings(out)
	return out
}

// startServer starts one long-lived actopd server and waits until it
// serves. It is killed when the test ends; its log is printed if the test
// failed.
func startServer(t *testing.T, bin, logPath, listen, peers, hbIvl string, snapIvl time.Duration) *exec.Cmd {
	t.Helper()
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-listen", listen, "-peers", peers,
		"-heartbeat-interval", hbIvl, "-durable-replicas", "1",
		"-snapshot-interval", snapIvl.String(), "-stats", "1h")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
		logf.Close()
		if t.Failed() {
			b, _ := os.ReadFile(logPath)
			t.Logf("%s log:\n%s", listen, b)
		}
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if b, _ := os.ReadFile(logPath); bytes.Contains(b, []byte("serving on")) {
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s did not start serving", listen)
		}
	}
}
