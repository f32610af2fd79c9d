package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// service is one running picasso-serve process.
type service struct {
	cmd     *exec.Cmd
	exited  chan struct{}
	base    string // http://127.0.0.1:port
	dataDir string // artifact dir ("" on the memory tier)
	log     *bytes.Buffer
}

// startService starts picasso-serve with the workload's settings and waits
// until /v1/healthz answers. The settings are the same on every run: two
// workers, the workload's LRU size, the default per-job budget, and an
// artifact dir only on the disk tier.
func startService(bin string, w workload, dataDir string) (*service, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-serve-workers", "2",
		"-cache", strconv.Itoa(w.cacheJobs),
		"-budget", strconv.Itoa(defaultBudget),
	}
	if w.disk {
		args = append(args, "-artifact-dir", dataDir)
	}
	s := &service{
		cmd:     exec.Command(bin, args...),
		exited:  make(chan struct{}),
		base:    "http://127.0.0.1:" + strconv.Itoa(port),
		dataDir: dataDir,
		log:     new(bytes.Buffer),
	}
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	// The service dies with the benchmark, whatever ends the benchmark.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is not needed, only the exit
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("picasso-serve exited during start: %s", strings.TrimSpace(s.log.String()))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("picasso-serve did not answer /v1/healthz within 20s")
		}
	}
}

// stop sends SIGTERM (the service's graceful drain) and waits for the
// process to exit, killing it after ten seconds.
func (s *service) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSS is the process's high-water resident set (VmHWM) in bytes.
func (s *service) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// client is the benchmark's HTTP client for one service.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
}

// The response types decode only the fields the benchmark reads.

type submitResponse struct {
	ID       string `json:"id"`
	CacheHit bool   `json:"cache_hit"`
}

type statusResponse struct {
	State       string         `json:"state"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   time.Time      `json:"started_at"`
	Result      *resultSummary `json:"result"`
}

type resultSummary struct {
	NumColors int     `json:"num_colors"`
	NumGroups int     `json:"num_groups"`
	PeakBytes int64   `json:"peak_bytes"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type groupsResponse struct {
	Groups [][]int `json:"groups"`
	Error  string  `json:"error"` // set on 409
}

type statsResponse struct {
	DiskHits int64 `json:"disk_hits"`
}

// do sends one request and decodes a JSON answer into out when the status
// is one of ok. It returns the status code.
func (c *client) do(method, path string, body []byte, out any, ok ...int) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	for _, code := range ok {
		if resp.StatusCode == code {
			if out == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				return code, err
			}
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return code, fmt.Errorf("%s %s: decoding: %w", method, path, err)
			}
			return code, nil
		}
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort error text
	return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
}

func (c *client) submit(body []byte) (submitResponse, error) {
	var r submitResponse
	_, err := c.do(http.MethodPost, "/v1/jobs", body, &r, http.StatusAccepted, http.StatusOK)
	return r, err
}

// groups fetches a job's groups; ready is false while the job is queued or
// running (409). A job that ended without groups is an error.
func (c *client) groups(id string) (groupsResponse, bool, error) {
	var r groupsResponse
	code, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/groups", nil, &r, http.StatusOK, http.StatusConflict)
	switch {
	case err != nil || code == http.StatusOK:
		return r, code == http.StatusOK, err
	case strings.HasPrefix(r.Error, "job is queued"), strings.HasPrefix(r.Error, "job is running"):
		return r, false, nil
	}
	return r, false, fmt.Errorf("job %s: %s", id, r.Error)
}

func (c *client) status(id string) (statusResponse, error) {
	var r statusResponse
	_, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &r, http.StatusOK)
	return r, err
}

func (c *client) stats() (statsResponse, error) {
	var r statsResponse
	_, err := c.do(http.MethodGet, "/v1/stats", nil, &r, http.StatusOK)
	return r, err
}
