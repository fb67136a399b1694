package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// The plan cache's geometry, set explicitly (it equals hnowd's default)
// so the replay's own plan cache can be built the same way: schedule-hit's
// hot set must fit it, and compare-miss must fill and evict it.
const (
	planCacheSize   = 4096
	planCacheShards = 16
)

// serverConfig is the one hnowd configuration every workload runs
// against: service defaults, the plan-cache geometry above and a spill
// directory, so /v1/table builds persist their tables as a deployed
// daemon with -table-dir does.
func serverConfig(spillDir string) service.Config {
	return service.Config{TableDir: spillDir, CacheSize: planCacheSize, CacheShards: planCacheShards}
}

// newPlanCache is a plan cache of the benchmark server's geometry.
func newPlanCache() *service.Cache { return service.NewCache(planCacheSize, planCacheShards) }

// serveMain is the child-process mode. It serves hnowd on a loopback
// port, prints "addr <host:port>" once the listener is open, and then
// takes commands on stdin: "gc" forces a collection and answers "ok".
// When stdin closes (the parent finished or died) it shuts down.
func serveMain(spillDir string) error {
	srv := service.New(serverConfig(spillDir))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Printf("addr %s\n", ln.Addr())
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		switch sc.Text() {
		case "gc":
			runtime.GC()
			fmt.Println("ok")
		default:
			fmt.Println("unknown command")
		}
	}
	hs.Close()
	if err := <-served; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// serverProc is a running hnowd child process. Running the server in its
// own process lets the benchmark read the server's CPU time apart from
// the load generator's.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
	// stopped makes stop idempotent, so a deferred stop can back up an
	// explicit one.
	stopped bool
}

// startServer launches this binary in -serve mode and returns once the
// child reports its listening address; no readiness polling is needed.
func startServer(spillDir string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-serve", "-spill", spillDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := p.out.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "addr ")
	if err != nil || !ok {
		p.stop()
		return nil, fmt.Errorf("server did not report its address (got %q): %v", line, err)
	}
	p.addr = addr
	return p, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// gc makes the server run a full collection and waits until it has.
func (p *serverProc) gc() error {
	if _, err := io.WriteString(p.stdin, "gc\n"); err != nil {
		return err
	}
	line, err := p.out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ok" {
		return fmt.Errorf("server gc: got %q: %v", line, err)
	}
	return nil
}

// cpuTicks is the server's user+system CPU time so far.
func (p *serverProc) cpuTicks() (int64, error) { return procCPUTicks(p.pid()) }

// stop closes the server's stdin and waits for it to exit, killing it if
// it has not exited within five seconds.
func (p *serverProc) stop() error {
	if p.stopped {
		return nil
	}
	p.stopped = true
	p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		return fmt.Errorf("server did not exit: %v", <-done)
	}
}

// httpClient is the closed-loop client: one keep-alive HTTP/1.1
// connection, driven from the calling goroutine. It writes each request
// itself and parses the reply with http.ReadResponse, so an exchange
// costs one write and the reads of the reply, with no transport
// goroutines to hand the request and reply across.
type httpClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte // request bytes, reused across exchanges
	// decodes is how many times decode decodes each reply. Raising it
	// multiplies the load generator's own work without touching the
	// server, which is how one checks that cpu_ms_per_op counts the
	// server only.
	decodes int
}

func newHTTPClient(addr string) *httpClient { return &httpClient{addr: addr, decodes: 1} }

// decode unmarshals a reply into out, decodes times.
func (c *httpClient) decode(data []byte, out any) error {
	for range c.decodes {
		if err := json.Unmarshal(data, out); err != nil {
			return err
		}
	}
	return nil
}

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and reads the whole reply. The returned duration
// runs from just before the request is written until the last reply
// byte is read. A failed exchange drops the connection; the next one
// dials again.
func (c *httpClient) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, 0, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.req = append(c.req[:0], method+" "+path+" HTTP/1.1\r\nHost: "+c.addr+"\r\n"...)
	if body != nil {
		c.req = append(c.req, "Content-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	c.req = append(c.req, body...)
	start := time.Now()
	status, data, keep, err := c.exchange(method)
	d := time.Since(start)
	if err != nil || !keep {
		c.close()
	}
	return status, data, d, err
}

// exchange writes the prepared request and reads the reply; keep
// reports whether the connection can carry the next one.
func (c *httpClient) exchange(method string) (int, []byte, bool, error) {
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		return 0, nil, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, !resp.Close, err
}

// statusErr is nil for a 2xx reply and otherwise names the request, the
// status and the reply body.
func statusErr(what string, status int, data []byte) error {
	if status/100 == 2 {
		return nil
	}
	return fmt.Errorf("%s: status %d: %s", what, status, bytes.TrimSpace(data))
}

// memStats reads the runtime counters a server publishes at /debug/vars.
type memStats struct {
	TotalAlloc uint64 `json:"TotalAlloc"`
	NumGC      uint32 `json:"NumGC"`
	HeapInuse  uint64 `json:"HeapInuse"`
}

// serverVars is the part of /debug/vars the traced run reads.
type serverVars struct {
	MemStats    memStats `json:"memstats"`
	CacheHits   int64    `json:"hnowd.cache.hits"`
	CacheMisses int64    `json:"hnowd.cache.misses"`
	CacheEvicts int64    `json:"hnowd.cache.evictions"`
	TableBuilds int64    `json:"hnowd.table.builds"`
}

func (c *httpClient) vars() (serverVars, error) {
	var v serverVars
	status, data, _, err := c.do(http.MethodGet, "/debug/vars", nil)
	if err == nil {
		err = statusErr("GET /debug/vars", status, data)
	}
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	return v, err
}
