package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// The /metrics exposition golden: for three daemon shapes it pins the
// sorted family set (name, TYPE, HELP text) and the sorted sample keys
// (name plus label keys, values ignored), so a refactor of the rendering
// cannot rename, retype, re-document or relabel a series unnoticed.
// Regenerate with `go test ./internal/service -run TestMetricsExposition -update`
// after a deliberate change.

const metricsGolden = "testdata/metrics_golden.txt"

// reportFamilies are the series the end-to-end benchmark's report reads;
// they must be on the standalone page whatever else changes.
var reportFamilies = []string{
	`rescqd_store_appends_total{codec}`,
	`rescqd_store_append_bytes_total{codec}`,
	`rescqd_store_compactions_total`,
	`rescqd_analytics_groups`,
	`rescqd_analytics_results_ingested_total`,
	`rescqd_cache_hits_total`,
	`rescqd_cache_misses_total`,
	`rescqd_jobs_preempted_total`,
}

func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(data)
}

// exposition is one parsed /metrics page.
type exposition struct {
	families []string // "family <name> <type> <help>", sorted
	samples  []string // "sample <name>{<label keys>}", sorted, deduplicated
}

// parseExposition parses a Prometheus text page and lints it: every family
// has exactly one HELP and one TYPE, both before its samples; a family's
// samples are contiguous and it appears once; no family is empty.
func parseExposition(page string) (exposition, error) {
	type family struct {
		help, kind                  string
		helpSeen, typeSeen, samples int
	}
	fams := map[string]*family{}
	var cur string
	closeFamily := func() error {
		if cur == "" {
			return nil
		}
		f := fams[cur]
		if f.helpSeen != 1 || f.typeSeen != 1 || f.samples == 0 {
			return fmt.Errorf("family %s: %d HELP, %d TYPE, %d samples", cur, f.helpSeen, f.typeSeen, f.samples)
		}
		return nil
	}
	open := func(name string) (*family, error) {
		if name == cur {
			return fams[name], nil
		}
		if _, dup := fams[name]; dup {
			return nil, fmt.Errorf("family %s appears twice", name)
		}
		if err := closeFamily(); err != nil {
			return nil, err
		}
		cur = name
		fams[name] = &family{}
		return fams[name], nil
	}
	keys := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			f, err := open(name)
			if err != nil {
				return exposition{}, err
			}
			if f.typeSeen > 0 || f.samples > 0 {
				return exposition{}, fmt.Errorf("family %s: HELP after TYPE or samples", name)
			}
			f.help, f.helpSeen = help, f.helpSeen+1
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			f, err := open(name)
			if err != nil {
				return exposition{}, err
			}
			if f.samples > 0 {
				return exposition{}, fmt.Errorf("family %s: TYPE after samples", name)
			}
			f.kind, f.typeSeen = kind, f.typeSeen+1
			continue
		}
		key, err := sampleKey(line)
		if err != nil {
			return exposition{}, err
		}
		name, _, _ := strings.Cut(key, "{")
		if name != cur {
			return exposition{}, fmt.Errorf("sample %q outside its family (current family %q)", line, cur)
		}
		fams[cur].samples++
		keys[key] = true
	}
	if err := closeFamily(); err != nil {
		return exposition{}, err
	}
	var e exposition
	for name, f := range fams {
		e.families = append(e.families, fmt.Sprintf("family %s %s %s", name, f.kind, f.help))
	}
	for k := range keys {
		e.samples = append(e.samples, "sample "+k)
	}
	slices.Sort(e.families)
	slices.Sort(e.samples)
	return e, nil
}

// sampleKey reduces a sample line to its name and sorted label keys,
// checking that every label value is a well-formed quoted string.
func sampleKey(line string) (string, error) {
	end := strings.IndexAny(line, "{ ")
	if end <= 0 {
		return "", fmt.Errorf("malformed sample %q", line)
	}
	name, rest := line[:end], line[end:]
	var labels []string
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			k, v, ok := strings.Cut(rest, `="`)
			if !ok {
				return "", fmt.Errorf("malformed labels in %q", line)
			}
			labels = append(labels, strings.TrimPrefix(k, ","))
			i := 0
			for ; i < len(v) && v[i] != '"'; i++ {
				if v[i] == '\\' {
					i++
					if i == len(v) || !strings.ContainsRune(`\"n`, rune(v[i])) {
						return "", fmt.Errorf("bad escape in %q", line)
					}
				}
			}
			if i >= len(v) {
				return "", fmt.Errorf("unterminated label value in %q", line)
			}
			rest = v[i+1:]
		}
		rest = rest[1:]
		slices.Sort(labels)
	}
	if !strings.HasPrefix(rest, " ") || strings.TrimSpace(rest) == "" {
		return "", fmt.Errorf("sample %q has no value", line)
	}
	if len(labels) == 0 {
		return name, nil
	}
	return name + "{" + strings.Join(labels, ",") + "}", nil
}

// metricsPages boots the three daemon shapes and scrapes each:
//   - standalone with a durable store, analytics and a tagged tenant whose
//     job is running at scrape time;
//   - a coordinator with one registered worker;
//   - that worker.
func metricsPages(t *testing.T) map[string]string {
	runner := newGatedRunner()
	s := New(config.Daemon{Workers: 1}.WithDefaults(), runner)
	attachDir(t, s, t.TempDir())
	s.Start()
	node := &clusterNode{srv: s, ts: httptest.NewServer(s.Handler())}
	t.Cleanup(func() { node.shutdown(t) })
	ts := node.ts.URL
	postJSON(t, ts+"/v1/run", RunRequest{Benchmark: "gcm_n13", Async: true, Tenant: "alpha"}).Body.Close()
	select {
	case <-runner.started:
	case <-time.After(10 * time.Second):
		t.Fatal("tenant job never started")
	}
	pages := map[string]string{"standalone": scrape(t, ts)}
	runner.tokens <- struct{}{}

	coord := startCoordinator(t, "")
	worker := startWorker(t, coord.ts.URL, &countingRunner{})
	waitForWorkers(t, coord, 1)
	pages["coordinator"] = scrape(t, coord.ts.URL)
	pages["worker"] = scrape(t, worker.ts.URL)
	return pages
}

func TestMetricsExpositionGolden(t *testing.T) {
	pages := metricsPages(t)
	var got strings.Builder
	for _, mode := range []string{"standalone", "coordinator", "worker"} {
		e, err := parseExposition(pages[mode])
		if err != nil {
			t.Fatalf("%s /metrics fails lint: %v\n%s", mode, err, pages[mode])
		}
		fmt.Fprintf(&got, "== %s\n%s\n%s\n", mode, strings.Join(e.families, "\n"), strings.Join(e.samples, "\n"))
		if mode == "standalone" {
			for _, want := range reportFamilies {
				if !slices.Contains(e.samples, "sample "+want) {
					t.Errorf("standalone /metrics lacks %s, which the benchmark report reads", want)
				}
			}
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(metricsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics exposition drifted from %s:\n%s", metricsGolden, lineDiff(string(want), got.String()))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			sb.WriteString("- " + l + "\n")
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			sb.WriteString("+ " + l + "\n")
		}
	}
	return sb.String()
}

func TestExpositionLintCatchesMalformedPages(t *testing.T) {
	for name, page := range map[string]string{
		"no help":        "# TYPE a counter\na 1\n",
		"two types":      "# HELP a x\n# TYPE a counter\n# TYPE a counter\na 1\n",
		"split family":   "# HELP a x\n# TYPE a counter\na 1\n# HELP b y\n# TYPE b gauge\nb 1\na 2\n",
		"repeated":       "# HELP a x\n# TYPE a counter\na 1\n# HELP a x\n# TYPE a counter\na 2\n",
		"empty family":   "# HELP a x\n# TYPE a counter\n",
		"go escape":      "# HELP a x\n# TYPE a gauge\na{w=\"\\t\"} 1\n",
		"sample first":   "a 1\n# HELP a x\n# TYPE a counter\n",
		"help after typ": "# TYPE a counter\n# HELP a x\na 1\n",
	} {
		if _, err := parseExposition(page); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, page)
		}
	}
	if _, err := parseExposition("# HELP a x\n# TYPE a gauge\na{w=\"q\\\"\\\\\\n\",v=\"\"} 1\n"); err != nil {
		t.Errorf("lint rejected a valid page: %v", err)
	}
}
