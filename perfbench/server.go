package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/pkg/client"
)

// serverArgs are npnserve's shipped defaults, spelled out so that a change
// of default shows up as a change of this file, not of the numbers.
var serverArgs = []string{"-arities", "4-10", "-config", "full", "-cache", "4096", "-workers", "0", "-metrics"}

// fsyncInterval is npnserve's shipped -fsync-interval group commit.
const fsyncInterval = 100 * time.Millisecond

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// server is one npnserve process under test.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the process has exited
	werr error         // the exit status, valid once done is closed

	// Requests sent per route, for the /metrics cross-check.
	classifySent, insertSent atomic.Int64
}

// procs owns every server a run starts, so that each one is stopped on
// every path out of the run.
type procs struct {
	bin, logPath string
	live         []*server
}

// start launches npnserve with the shipped defaults plus extra on a free
// loopback port. Its log goes to p.logPath.
func (p *procs) start(extra ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append(append([]string{"-addr", addr}, serverArgs...), extra...)
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping it, the kernel kills the
	// server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting npnserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		s.werr = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	p.live = append(p.live, s)
	return s, nil
}

// killAll kills every server still running and waits for each to exit.
func (p *procs) killAll() {
	for _, s := range p.live {
		select {
		case <-s.done:
		default:
			s.cmd.Process.Kill()
			<-s.done
		}
	}
}

// waitReady polls GET /healthz until the server answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("npnserve exited during start-up: %v", s.werr)
		default:
		}
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("npnserve not ready within %s", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down gracefully (SIGTERM: drain, flush and close
// the WAL) and waits for a clean exit.
func (s *server) stop() error {
	select {
	case <-s.done:
		return fmt.Errorf("npnserve exited before it was stopped: %v", s.werr)
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
		if s.werr != nil {
			return fmt.Errorf("npnserve shutdown: %w", s.werr)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("npnserve ignored SIGTERM for 30s and was killed")
	}
}

// classify and insert send one batch through c and count it.
func (s *server) classify(ctx context.Context, c *client.Client, fns []string) (*api.ClassifyResponse, error) {
	s.classifySent.Add(1)
	return c.Classify(ctx, fns)
}

func (s *server) insert(ctx context.Context, c *client.Client, fns []string) (*api.InsertResponse, error) {
	s.insertSent.Add(1)
	return c.Insert(ctx, fns)
}

// checkRequestCounts cross-checks npnserve's own request histogram against
// the number of batch requests this process sent it.
func (s *server) checkRequestCounts(ctx context.Context, c *client.Client) error {
	sc, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	for route, sent := range map[string]int64{
		"/v2/classify": s.classifySent.Load(),
		"/v2/insert":   s.insertSent.Load(),
	} {
		got := sc.Sum("npn_http_request_duration_seconds_count", "route="+route, "method=POST")
		if int64(got) != sent {
			return fmt.Errorf("npnserve counted %v POST %s requests, the load generator sent %d", got, route, sent)
		}
	}
	return nil
}

// cpuTime returns the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields resume after
	// its closing parenthesis, starting at field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns the server's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newClient returns a pkg/client on one connection of its own with
// retries off, so that every failure is counted instead of retried. The
// caller closes the transport's idle connection when done.
func newClient(base string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return client.New(base, client.WithHTTPClient(hc), client.WithRetries(0)), tr
}
