package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// conn is one client role: an HTTP client that holds at most one
// connection to the daemon, so the load generator's connection count is
// the number of roles a workload uses.
type conn struct {
	hc   *http.Client
	base string
}

func newConn(base string) *conn {
	return &conn{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// sweepLine is one NDJSON line of a streamed sweep: a ConfigResult, or the
// terminal job view (which carries an id and a state instead of an index).
type sweepLine struct {
	Index     *int            `json:"index"`
	Benchmark string          `json:"benchmark"`
	Scheduler string          `json:"scheduler"`
	Cached    bool            `json:"cached"`
	Summary   json.RawMessage `json:"summary"`
	Error     string          `json:"error"`

	ID       string               `json:"id"`
	State    string               `json:"state"`
	Progress *service.JobProgress `json:"progress"`
}

// streamSweep POSTs an NDJSON sweep and calls onLine with the POST time,
// the arrival time and the bytes of every line (the bytes are only valid
// during the call). It returns the POST time and the time the response
// headers arrived.
func (c *conn) streamSweep(ctx context.Context, req service.SweepRequest, onLine func(posted, at time.Time, line []byte) error) (posted, headers time.Time, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return posted, headers, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return posted, headers, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	posted = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return posted, headers, err
	}
	headers = time.Now()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return posted, headers, fmt.Errorf("sweep: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if err := onLine(posted, time.Now(), sc.Bytes()); err != nil {
			return posted, headers, err
		}
	}
	return posted, headers, sc.Err()
}

// runOnce POSTs a blocking /v1/run and decodes the reply.
func (c *conn) runOnce(ctx context.Context, req service.RunRequest) (runReply, error) {
	var out runReply
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("run: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	err = json.Unmarshal(data, &out)
	return out, err
}

// runReply is the POST /v1/run reply with the summary kept as raw bytes.
type runReply struct {
	State   string          `json:"state"`
	Cached  bool            `json:"cached"`
	Summary json.RawMessage `json:"summary"`
	Error   string          `json:"error"`
}

// get fetches a path and returns its body, failing on any status but 200.
func (c *conn) get(ctx context.Context, path string) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// scrape fetches /metrics and /healthz as an operator's poll does and
// returns the /metrics samples by name.
func (c *conn) scrape(ctx context.Context) (map[string]float64, error) {
	data, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if _, err := c.get(ctx, "/healthz"); err != nil {
		return nil, err
	}
	return parseProm(data), nil
}

// parseProm reads a Prometheus text page into one value per metric name,
// summing a labelled metric's series.
func parseProm(data []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// analyticsQuery is one fixed GET /v1/analytics query.
type analyticsQuery struct {
	kind string // groupby, pareto or sensitivity
	path string
}

// analyticsQueries is the fixed query set an operator's dashboard issues.
func analyticsQueries(benchmark string) []analyticsQuery {
	return []analyticsQuery{
		{"groupby", "/v1/analytics/groupby?by=benchmark,scheduler"},
		{"groupby", "/v1/analytics/groupby?by=distance,k"},
		{"pareto", "/v1/analytics/pareto?benchmark=" + url.QueryEscape(benchmark)},
		{"sensitivity", "/v1/analytics/sensitivity?axis=scheduler&a=rescq&b=greedy"},
	}
}
