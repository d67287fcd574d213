package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bootTimeout bounds spawn-to-ready, recovery included.
const bootTimeout = 60 * time.Second

// stderrWatch collects a child's standard error: it picks the bound
// address out of failscoped's "serving on http://ADDR/" line and keeps the
// last lines for error messages.
type stderrWatch struct {
	addr chan string // receives the bound address once

	mu   sync.Mutex
	sent bool
	part []byte
	tail []string
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.part = append(w.part, p...)
	for {
		i := bytes.IndexByte(w.part, '\n')
		if i < 0 {
			break
		}
		line := string(w.part[:i])
		w.part = w.part[i+1:]
		if j := strings.Index(line, "serving on http://"); j >= 0 && !w.sent {
			w.addr <- strings.TrimSuffix(line[j+len("serving on http://"):], "/")
			w.sent = true
		}
		if w.tail = append(w.tail, line); len(w.tail) > 8 {
			w.tail = w.tail[1:]
		}
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.tail, " | ")
}

// proc is one running program under test.
type proc struct {
	cmd    *exec.Cmd
	stderr *stderrWatch
	start  time.Time
	done   chan struct{}
	err    error
}

// spawn starts bin with args; the child is killed if ctx ends first.
func spawn(ctx context.Context, stdout io.Writer, bin string, args ...string) (*proc, error) {
	p := &proc{stderr: &stderrWatch{addr: make(chan string, 1)}, done: make(chan struct{})}
	p.cmd = exec.CommandContext(ctx, bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = stdout, p.stderr
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// wait blocks until the child exits and returns its resource usage; err is
// non-nil for a non-zero exit unless the harness killed it on purpose.
func (p *proc) wait(killed bool) (usage, error) {
	<-p.done
	u := usageOf(p.cmd.ProcessState)
	if p.err != nil && !killed {
		return u, fmt.Errorf("%s: %v (%s)", p.cmd.Args[0], p.err, p.stderr)
	}
	return u, nil
}

// daemon is a failscoped process that has answered /healthz.
type daemon struct {
	*proc
	base  string
	ready time.Duration // spawn to the first /healthz 200
}

// bootDaemon spawns failscoped and polls /healthz until it answers 200.
func bootDaemon(ctx context.Context, o options, client *http.Client, args ...string) (*daemon, error) {
	args = append([]string{"-scale", o.scale, "-addr", "127.0.0.1:0"}, args...)
	p, err := spawn(ctx, io.Discard, o.bin+"/failscoped", args...)
	if err != nil {
		return nil, err
	}
	d := &daemon{proc: p}
	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	select {
	case addr := <-p.stderr.addr:
		d.base = "http://" + addr
	case <-p.done:
		return nil, fmt.Errorf("failscoped exited during boot: %v (%s)", p.err, p.stderr)
	case <-deadline.C:
		p.cmd.Process.Kill()
		<-p.done
		return nil, fmt.Errorf("failscoped did not bind within %v (%s)", bootTimeout, p.stderr)
	}
	for {
		if code, _, err := get(client, d.base+"/healthz"); err == nil && code == http.StatusOK {
			d.ready = time.Since(p.start)
			return d, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("failscoped exited during boot: %v (%s)", p.err, p.stderr)
		case <-deadline.C:
			p.cmd.Process.Kill()
			<-p.done
			return nil, fmt.Errorf("failscoped /healthz not ready within %v", bootTimeout)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends sig and waits for the exit. SIGTERM must end in a clean exit
// (the daemon drains, and in durable mode writes its final checkpoint).
func (d *daemon) stop(sig syscall.Signal) (usage, error) {
	if err := d.cmd.Process.Signal(sig); err != nil {
		return usage{}, err
	}
	return d.wait(sig == syscall.SIGKILL)
}

// get reads a URL to the end.
func get(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// post sends one JSONL batch and returns the applied event count; any
// status other than 2xx is an error.
func post(client *http.Client, base string, body []byte) (int, error) {
	resp, err := client.Post(base+"/v1/events", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("POST /v1/events: %d %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	var ack struct {
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil {
		return 0, fmt.Errorf("POST /v1/events reply: %w", err)
	}
	return ack.Applied, nil
}

// healthSeq reads the engine sequence /healthz reports.
func healthSeq(client *http.Client, base string) (int64, error) {
	code, body, err := get(client, base+"/healthz")
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET /healthz: %d", code)
	}
	var h struct {
		Seq int64 `json:"seq"`
	}
	err = json.Unmarshal(body, &h)
	return h.Seq, err
}

// newClient allows two connections: the producer's and the reader's.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			DisableCompression:  true,
		},
	}
}
