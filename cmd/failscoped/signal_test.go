package main

import (
	"bufio"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemonArgsEnv carries the daemon's flags to TestDaemonProcess.
const daemonArgsEnv = "FAILSCOPED_TEST_DAEMON_ARGS"

// TestDaemonProcess is not a test: it is the failscoped child process the
// signal tests start, this test binary re-executed with daemonArgsEnv set.
func TestDaemonProcess(t *testing.T) {
	args := os.Getenv(daemonArgsEnv)
	if args == "" {
		t.Skip("child process of the signal tests")
	}
	os.Args = append([]string{"failscoped"}, strings.Fields(args)...)
	main()
	os.Exit(0)
}

// daemon is a running failscoped child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	stderr strings.Builder
	done   chan struct{} // closed when stderr reaches EOF
}

// startDaemon boots a small-scale in-memory failscoped on an ephemeral
// port and returns once it has announced its address.
func startDaemon(t *testing.T) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDaemonProcess$")
	cmd.Env = append(os.Environ(), daemonArgsEnv+"=-addr 127.0.0.1:0 -scale small")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
		cmd.Wait()
	})
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "failscoped: serving on http://"); ok {
				addrc <- strings.TrimSuffix(rest, "/")
			}
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-d.done:
		t.Fatalf("daemon exited before serving:\n%s", d.log())
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not announce its address:\n%s", d.log())
	}
	return d
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// requireDrain sends SIGTERM and requires the graceful path: a "draining"
// line and exit status 0.
func (d *daemon) requireDrain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-d.done
	err := d.cmd.Wait()
	if err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, d.log())
	}
	if !strings.Contains(d.log(), "failscoped: terminated, draining") {
		t.Fatalf("daemon exited without draining:\n%s", d.log())
	}
}

// TestSIGTERMAfterFirstHealthzDrains sends SIGTERM the moment /healthz
// first answers 200: the daemon must drain and exit 0, not die on the
// default signal action.
func TestSIGTERMAfterFirstHealthzDrains(t *testing.T) {
	d := startDaemon(t)
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never answered 200 (last error %v):\n%s", err, d.log())
		}
		time.Sleep(time.Millisecond)
	}
	d.requireDrain(t)
}

// TestSIGTERMOnAddressDrains sends SIGTERM as soon as the daemon announces
// its address, before any request: the handler is already installed.
func TestSIGTERMOnAddressDrains(t *testing.T) {
	startDaemon(t).requireDrain(t)
}
