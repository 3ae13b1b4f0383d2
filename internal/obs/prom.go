package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// HistogramData is the renderer-neutral histogram shape shared with
// the service's stats histograms: Le holds the upper bounds of the
// finite buckets, Counts holds one count per finite bucket plus a
// final overflow bucket (len(Le)+1 entries), Sum is the total of all
// observed values. Buckets are non-cumulative here; Histogram emits
// the cumulative form Prometheus requires.
type HistogramData struct {
	Le     []float64
	Counts []uint64
	Sum    float64
}

// Prom incrementally writes Prometheus text exposition format 0.0.4.
// HELP/TYPE headers are emitted once per metric name, on first use;
// callers keep all samples of one name adjacent (which the natural
// "loop over label values" call pattern does). Errors stick: check
// Err once at the end.
type Prom struct {
	w     *bufio.Writer
	err   error
	typed map[string]bool
}

// NewProm starts a writer targeting w.
func NewProm(w io.Writer) *Prom {
	return &Prom{w: bufio.NewWriter(w), typed: make(map[string]bool)}
}

// Gauge emits one gauge sample. labels alternate name, value.
func (p *Prom) Gauge(name, help string, v float64, labels ...string) {
	p.sample(name, help, "gauge", v, labels)
}

// Counter emits one counter sample.
func (p *Prom) Counter(name, help string, v float64, labels ...string) {
	p.sample(name, help, "counter", v, labels)
}

// Histogram emits one histogram series (cumulative _bucket samples
// with le labels, the +Inf bucket, _sum, and _count) under the shared
// label set.
func (p *Prom) Histogram(name, help string, h HistogramData, labels ...string) {
	p.head(name, help, "histogram")
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Le) {
			le = formatFloat(h.Le[i])
		}
		p.line(name+"_bucket", append(append([]string{}, labels...), "le", le), float64(cum))
	}
	p.line(name+"_sum", labels, h.Sum)
	p.line(name+"_count", labels, float64(cum))
}

// Err returns the first write error, if any.
func (p *Prom) Err() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

func (p *Prom) sample(name, help, typ string, v float64, labels []string) {
	p.head(name, help, typ)
	p.line(name, labels, v)
}

func (p *Prom) head(name, help, typ string) {
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	p.writeString("# HELP " + name + " " + escapeHelp(help) + "\n")
	p.writeString("# TYPE " + name + " " + typ + "\n")
}

func (p *Prom) line(name string, labels []string, v float64) {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(labels[i])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(labels[i+1]))
			sb.WriteString(`"`)
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
	p.writeString(sb.String())
}

func (p *Prom) writeString(s string) {
	if p.err != nil {
		return
	}
	_, p.err = p.w.WriteString(s)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// ValidateProm parses Prometheus text exposition and checks structure:
// every sample line is well-formed, every sample name is declared by a
// preceding TYPE header (modulo histogram suffixes), histogram buckets
// are cumulative-monotone with a +Inf bucket matching _count. Used by
// the /metrics tests (internal/service and cmd/dexpanderd) so CI fails
// on malformed output. Returns the set of base metric names seen.
func ValidateProm(r io.Reader) (map[string]bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := make(map[string]string)
	names := make(map[string]bool)
	type histState struct {
		last    float64
		lastLe  float64
		haveLe  bool
		infSeen bool
		infVal  float64
	}
	hists := make(map[string]*histState) // keyed by name + non-le labels
	counts := make(map[string]float64)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[1] == "TYPE" {
				if _, dup := types[f[2]]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, f[2])
				}
				types[f[2]] = f[3]
			}
			continue
		}
		name, labels, val, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		base, suffix := splitSuffix(name, types)
		if _, ok := types[base]; !ok {
			return nil, fmt.Errorf("line %d: sample %s has no TYPE header", lineNo, name)
		}
		names[base] = true
		if types[base] == "histogram" {
			key := base + "|" + labelsKeyWithout(labels, "le")
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return nil, fmt.Errorf("line %d: %s bucket without le label", lineNo, name)
				}
				st := hists[key]
				if st == nil {
					st = &histState{}
					hists[key] = st
				}
				if val < st.last {
					return nil, fmt.Errorf("line %d: %s buckets not cumulative (%g < %g)", lineNo, name, val, st.last)
				}
				st.last = val
				if le == "+Inf" {
					st.infSeen = true
					st.infVal = val
				} else {
					f, err := strconv.ParseFloat(le, 64)
					if err != nil {
						return nil, fmt.Errorf("line %d: bad le %q: %v", lineNo, le, err)
					}
					if st.haveLe && f <= st.lastLe {
						return nil, fmt.Errorf("line %d: %s le bounds not increasing (%g after %g)", lineNo, name, f, st.lastLe)
					}
					st.lastLe, st.haveLe = f, true
				}
			case "_count":
				counts[key] = val
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key, st := range hists {
		if !st.infSeen {
			return nil, fmt.Errorf("histogram %s: no +Inf bucket", key)
		}
		if c, ok := counts[key]; !ok || c != st.infVal {
			return nil, fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", key, c, st.infVal)
		}
	}
	return names, nil
}

// splitSuffix strips a histogram suffix when the stripped name has a
// histogram TYPE header.
func splitSuffix(name string, types map[string]string) (base, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
			return b, suf
		}
	}
	return name, ""
}

func parseSample(line string) (name string, labels map[string]string, val float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	labels = map[string]string{}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, ",")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=\"")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var sb strings.Builder
			for {
				j := strings.IndexAny(rest, `\"`)
				if j < 0 {
					return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
				}
				if rest[j] == '\\' {
					if j+1 >= len(rest) {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					sb.WriteString(rest[:j])
					switch rest[j+1] {
					case 'n':
						sb.WriteByte('\n')
					default:
						sb.WriteByte(rest[j+1])
					}
					rest = rest[j+2:]
					continue
				}
				sb.WriteString(rest[:j])
				rest = rest[j+1:]
				break
			}
			labels[key] = sb.String()
		}
	} else {
		rest = rest[i:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; we never emit one, but accept it.
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	val, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return name, labels, val, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func labelsKeyWithout(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	// Insertion-order independence: a stable key needs sorted labels.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
		sb.WriteByte(';')
	}
	return sb.String()
}
