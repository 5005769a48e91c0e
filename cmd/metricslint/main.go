// Command metricslint validates the observability surface of a running
// tindserve: the Prometheus text exposition on /metrics (every sample
// line must parse, every metric family must carry non-empty HELP and a
// known TYPE, every histogram must close with a +Inf bucket) and the
// JSON debugging endpoint /debug/events.
//
// CI boots a tiny-corpus server and points this tool at it (see
// scripts/metricslint.sh); a non-zero exit means a metric was added or
// changed without keeping the exposition contract.
//
// Usage:
//
//	metricslint -url http://127.0.0.1:8080
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// sampleRe matches one text-format sample line: a metric name, optional
// {labels}, a value, and an optional timestamp.
var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)( [0-9.e+-]+)?$`)

// knownTypes are the exposition TYPE values this codebase emits.
var knownTypes = map[string]bool{"counter": true, "gauge": true, "histogram": true}

type lintError struct {
	context string
	msg     string
}

func (e lintError) String() string { return e.context + ": " + e.msg }

type linter struct {
	errs []lintError
}

func (l *linter) errorf(context, format string, args ...interface{}) {
	l.errs = append(l.errs, lintError{context, fmt.Sprintf(format, args...)})
}

// family strips the histogram series suffixes that samples of one metric
// family share.
func family(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

// lintExposition checks one Prometheus 0.0.4 text exposition.
func (l *linter) lintExposition(context, text string) {
	help := map[string]string{} // family -> help text
	typ := map[string]string{}  // family -> type
	families := map[string]bool{}
	infBucket := map[string]bool{} // histogram family -> saw le="+Inf"

	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		ctx := fmt.Sprintf("%s:%d", context, lineNo)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, text, ok := strings.Cut(rest, " ")
			if !ok || strings.TrimSpace(text) == "" {
				l.errorf(ctx, "HELP line without help text: %q", line)
				continue
			}
			help[name] = text
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, t, ok := strings.Cut(rest, " ")
			if !ok || !knownTypes[t] {
				l.errorf(ctx, "TYPE line with unknown type: %q", line)
				continue
			}
			typ[name] = t
		case strings.HasPrefix(line, "#"):
			// Other comments are legal and ignored.
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				l.errorf(ctx, "unparseable sample line: %q", line)
				continue
			}
			name, labels, value := m[1], m[2], m[3]
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				l.errorf(ctx, "sample %s: bad value %q", name, value)
			}
			// Resolve the sample to its family: an exact metadata match
			// wins (a gauge may legitimately end in _count), otherwise
			// strip the histogram series suffixes.
			fam := name
			if _, ok := typ[fam]; !ok {
				fam = family(name)
			}
			families[fam] = true
			if strings.HasSuffix(name, "_bucket") && strings.Contains(labels, `le="+Inf"`) {
				infBucket[fam] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		l.errorf(context, "reading exposition: %v", err)
		return
	}

	for fam := range families {
		if strings.TrimSpace(help[fam]) == "" {
			l.errorf(context, "metric family %s has no # HELP text", fam)
		}
		t, ok := typ[fam]
		if !ok {
			l.errorf(context, "metric family %s has no # TYPE line", fam)
			continue
		}
		if t == "histogram" && !infBucket[fam] {
			l.errorf(context, "histogram %s has no le=\"+Inf\" bucket", fam)
		}
	}
}

// fetch GETs a URL and returns the body and its content type.
func fetch(client *http.Client, url string) (string, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), resp.Header.Get("Content-Type"), nil
}

// lintJSON asserts a URL answers a JSON object containing the required
// top-level keys.
func (l *linter) lintJSON(client *http.Client, url string, requiredKeys ...string) {
	body, _, err := fetch(client, url)
	if err != nil {
		l.errorf(url, "%v", err)
		return
	}
	var obj map[string]interface{}
	if err := json.Unmarshal([]byte(body), &obj); err != nil {
		l.errorf(url, "response is not a JSON object: %v", err)
		return
	}
	for _, k := range requiredKeys {
		if _, ok := obj[k]; !ok {
			l.errorf(url, "JSON response missing key %q", k)
		}
	}
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of a running tindserve")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	flag.Parse()

	client := &http.Client{Timeout: *timeout}
	l := &linter{}

	text, ct, err := fetch(client, *url+"/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricslint: %v\n", err)
		os.Exit(1)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		l.errorf("/metrics", "content type %q, want text/plain", ct)
	}
	l.lintExposition("/metrics", text)

	// JSON debugging endpoint.
	l.lintJSON(client, *url+"/debug/events", "count", "events")

	if len(l.errs) > 0 {
		for _, e := range l.errs {
			fmt.Fprintf(os.Stderr, "metricslint: %s\n", e)
		}
		fmt.Fprintf(os.Stderr, "metricslint: %d problem(s)\n", len(l.errs))
		os.Exit(1)
	}
	fmt.Println("metricslint: exposition and debug endpoints clean")
}
