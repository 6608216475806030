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
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one covserve subprocess.
type proc struct {
	cmd  *exec.Cmd
	addr string // base URL, http://127.0.0.1:port

	mu  sync.Mutex
	log bytes.Buffer // stderr, for error reports
	// done is closed once the stderr reader has drained the pipe.
	done chan struct{}
}

// listenMarkers are the log lines covserve prints once it accepts
// connections (leader and replica form).
var listenMarkers = []string{"covserve: listening on ", "covserve: replica listening on "}

// startCovserve launches covserve with args plus a loopback listener
// on a free port and returns once the listener is up, which for a
// leader means the dataset is already loaded.
func startCovserve(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	// If the benchmark dies without stopping its servers, the kernel
	// kills them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting covserve: %w", err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			for _, m := range listenMarkers {
				if i := strings.Index(line, m); i >= 0 {
					select {
					case addrCh <- strings.TrimSpace(line[i+len(m):]):
					default:
					}
				}
			}
		}
	}()
	select {
	case a := <-addrCh:
		p.addr = "http://" + a
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("covserve exited before listening:\n%s", p.stderr())
	case <-time.After(2 * time.Minute):
		p.stop()
		return nil, fmt.Errorf("covserve did not start listening within 2m:\n%s", p.stderr())
	}
}

func (p *proc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// stop kills the process (covserve has no graceful shutdown) and waits
// for it and its log reader to end.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.done
	_ = p.cmd.Wait() // the kill's exit status carries no information
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newClient returns an HTTP client that keeps at most conns
// connections per server, so the load generator never opens more than
// the machine has CPUs.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	body   []byte
	gen    uint64 // X-Coverage-Generation, on follower reads
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

func (r reply) failure() error {
	if r.err != nil {
		return r.err
	}
	return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
}

// do sends one request and reads the whole response.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, contentType string) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	r := reply{status: resp.StatusCode, body: data, err: err}
	if g := resp.Header.Get("X-Coverage-Generation"); g != "" {
		r.gen, _ = strconv.ParseUint(g, 10, 64) // absent or malformed reads as 0
	}
	return r
}

// getJSON fetches url and decodes the JSON answer into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	r := do(ctx, c, "GET", url, nil, "")
	if !r.ok() {
		return fmt.Errorf("GET %s: %w", url, r.failure())
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// mustOK sends a request that must succeed.
func mustOK(ctx context.Context, c *http.Client, method, url string, body []byte, contentType string) (reply, error) {
	r := do(ctx, c, method, url, body, contentType)
	if !r.ok() {
		return r, fmt.Errorf("%s %s: %w", method, url, r.failure())
	}
	return r, nil
}
