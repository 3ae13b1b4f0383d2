package graph

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList serializes the graph in the whitespace edge-list format
// common to graph datasets: a header line "n m" followed by one "u v"
// line per edge (self-loops included). Deterministic: edges appear in id
// order.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList, plus the two
// variations real-world graph dumps need so they can be ingested
// unmodified:
//
//   - gzip: the stream is sniffed for the gzip magic bytes and
//     transparently decompressed, so "graph.txt.gz" uploads work as-is.
//   - SNAP headers: lines that are empty or start with '#' are skipped,
//     and a SNAP-style "# Nodes: N Edges: M" comment seen before any data
//     line supplies the vertex count, replacing the "n m" header line.
//     The Edges figure from such a comment is treated as a capacity hint
//     only (SNAP files count arcs or edges depending on the dataset), so
//     the strict edge-count check applies only to explicit headers.
//
// Without either header form the first data line must be the "n m"
// header, exactly as before.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListLimited(r, ReadLimits{})
}

// ReadLimits bounds untrusted edge-list input. Both limits apply to the
// decompressed stream, so a small gzip upload cannot expand into
// unbounded work; zero means unlimited.
type ReadLimits struct {
	// MaxVertices caps the header's vertex count (the parser allocates
	// per-vertex state, so a lying header must be rejected up front).
	MaxVertices int
	// MaxEdges caps the number of edge lines accepted.
	MaxEdges int
	// MaxBytes caps the decompressed bytes consumed.
	MaxBytes int64
}

// ReadEdgeListLimited is ReadEdgeList with resource bounds — the
// entry point for servers ingesting untrusted uploads.
func ReadEdgeListLimited(r io.Reader, lim ReadLimits) (*Graph, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graph: open gzip stream: %w", err)
		}
		g, err := readEdgeList(zr, lim)
		if err != nil {
			zr.Close()
			return nil, err
		}
		// Close verifies the gzip checksum; a truncated or corrupted
		// archive must not yield a silently short graph.
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("graph: gzip stream: %w", err)
		}
		return g, nil
	}
	return readEdgeList(br, lim)
}

// errTooLarge marks a stream that outgrew ReadLimits.MaxBytes.
var errTooLarge = fmt.Errorf("graph: edge list exceeds the decompressed byte limit")

// cappedReader errors (rather than io.EOF) once MORE than max bytes
// have been consumed, so a bounds violation is distinguishable from a
// complete stream. A stream of exactly max bytes passes: the reader
// allows one sentinel byte past the cap and only errors when it
// arrives.
type cappedReader struct {
	r         io.Reader
	remaining int64 // bytes still allowed; -1 once the cap is breached
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.remaining < 0 {
		return 0, errTooLarge
	}
	if int64(len(p)) > c.remaining+1 {
		p = p[:c.remaining+1]
	}
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	if c.remaining < 0 {
		return 0, errTooLarge
	}
	return n, err
}

// snapHeader extracts (nodes, edges) from a SNAP-style comment such as
// "# Nodes: 4039 Edges: 88234".
func snapHeader(line string) (n, m int, ok bool) {
	fields := strings.Fields(strings.ToLower(line))
	n, m = -1, -1
	for i := 0; i+1 < len(fields); i++ {
		switch fields[i] {
		case "nodes:":
			if v, err := strconv.Atoi(fields[i+1]); err == nil && v >= 0 {
				n = v
			}
		case "edges:":
			if v, err := strconv.Atoi(fields[i+1]); err == nil && v >= 0 {
				m = v
			}
		}
	}
	return n, m, n >= 0
}

// edgeCapHint bounds the slice capacity pre-allocated from an untrusted
// SNAP "Edges:" count (64 KiB of edges), so a lying header cannot demand
// an allocation its edge lines never justify; an honest larger graph
// grows the slice by append.
const edgeCapHint = 1 << 12

// maxLineBytes bounds a single edge-list line, matching the old
// bufio.Scanner token limit.
const maxLineBytes = 1 << 22

// lineScanner yields lines as byte slices out of one reused buffer: no
// per-line string conversion, no field slices, no garbage on the hot
// ingest path. A returned line is valid only until the next call.
type lineScanner struct {
	r          io.Reader
	buf        []byte
	start, end int
	eof        bool
}

func newLineScanner(r io.Reader) *lineScanner {
	return &lineScanner{r: r, buf: make([]byte, 64*1024)}
}

// line returns the next line without its '\n' terminator; io.EOF after
// the last line. Lines spanning a buffer refill are compacted to the
// front; the buffer doubles up to maxLineBytes for oversized lines.
func (s *lineScanner) line() ([]byte, error) {
	for {
		if i := bytes.IndexByte(s.buf[s.start:s.end], '\n'); i >= 0 {
			line := s.buf[s.start : s.start+i]
			s.start += i + 1
			return line, nil
		}
		if s.eof {
			if s.start < s.end {
				line := s.buf[s.start:s.end]
				s.start = s.end
				return line, nil
			}
			return nil, io.EOF
		}
		if s.start > 0 {
			copy(s.buf, s.buf[s.start:s.end])
			s.end -= s.start
			s.start = 0
		}
		if s.end == len(s.buf) {
			if len(s.buf) >= maxLineBytes {
				return nil, fmt.Errorf("graph: edge-list line longer than %d bytes", maxLineBytes)
			}
			grown := make([]byte, min(2*len(s.buf), maxLineBytes))
			copy(grown, s.buf[:s.end])
			s.buf = grown
		}
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			return nil, err
		}
	}
}

func isBlank(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// trimBlanks strips leading and trailing blank bytes in place.
func trimBlanks(b []byte) []byte {
	for len(b) > 0 && isBlank(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isBlank(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// parseIntBytes is an allocation-free strconv.Atoi for the decimal
// integers edge-list lines carry.
func parseIntBytes(b []byte) (int, bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	const maxInt = int(^uint(0) >> 1)
	n := 0
	for ; i < len(b); i++ {
		d := int(b[i] - '0')
		if d < 0 || d > 9 || n > (maxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return n, true
}

// splitTwoInts parses a data line of exactly two blank-separated
// integers without allocating. numErr reports a field that is present
// but not a parseable integer (the caller re-parses it with strconv for
// the canonical wrapped error).
func splitTwoInts(line []byte) (a, c int, ok, numErr bool) {
	i := 0
	next := func() ([]byte, bool) {
		for i < len(line) && isBlank(line[i]) {
			i++
		}
		if i == len(line) {
			return nil, false
		}
		s := i
		for i < len(line) && !isBlank(line[i]) {
			i++
		}
		return line[s:i], true
	}
	fa, ok1 := next()
	fc, ok2 := next()
	if _, extra := next(); !ok1 || !ok2 || extra {
		return 0, 0, false, false
	}
	a, okA := parseIntBytes(fa)
	c, okC := parseIntBytes(fc)
	if !okA || !okC {
		return 0, 0, false, true
	}
	return a, c, true, false
}

// atoiError reproduces the pre-scanner error shape for a line whose
// fields are not integers, wrapping the strconv error exactly as the
// strings.Fields parser did.
func atoiError(line string) error {
	for _, f := range strings.Fields(line) {
		if _, err := strconv.Atoi(f); err != nil {
			return fmt.Errorf("graph: bad number in %q: %w", line, err)
		}
	}
	// Overflow in parseIntBytes with fields strconv accepts cannot
	// happen (both bound at the platform int); defensive fallback.
	return fmt.Errorf("graph: bad number in %q", line)
}

func readEdgeList(r io.Reader, lim ReadLimits) (*Graph, error) {
	if lim.MaxBytes > 0 {
		r = &cappedReader{r: r, remaining: lim.MaxBytes}
	}
	sc := newLineScanner(r)
	var b *Builder
	edges := 0
	wantEdges := -1
	for {
		raw, err := sc.line()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line := trimBlanks(raw)
		if len(line) == 0 || line[0] == '#' {
			if b == nil {
				if n, m, ok := snapHeader(string(line)); ok {
					if lim.MaxVertices > 0 && n > lim.MaxVertices {
						return nil, fmt.Errorf("graph: header vertex count %d exceeds the %d limit", n, lim.MaxVertices)
					}
					b = NewBuilder(n)
					if m > 0 {
						hint := min(m, edgeCapHint)
						if lim.MaxEdges > 0 {
							hint = min(hint, lim.MaxEdges)
						}
						b.edges = make([]Edge, 0, hint)
					}
				}
			}
			continue
		}
		a, c, ok, numErr := splitTwoInts(line)
		if !ok {
			if numErr {
				return nil, atoiError(string(line))
			}
			return nil, fmt.Errorf("graph: malformed line %q", line)
		}
		if b == nil {
			if a < 0 || c < 0 {
				return nil, fmt.Errorf("graph: negative header %q", line)
			}
			if lim.MaxVertices > 0 && a > lim.MaxVertices {
				return nil, fmt.Errorf("graph: header vertex count %d exceeds the %d limit", a, lim.MaxVertices)
			}
			if lim.MaxEdges > 0 && c > lim.MaxEdges {
				return nil, fmt.Errorf("graph: header edge count %d exceeds the %d limit", c, lim.MaxEdges)
			}
			b = NewBuilder(a)
			wantEdges = c
			continue
		}
		if a < 0 || a >= bN(b) || c < 0 || c >= bN(b) {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range", a, c)
		}
		if lim.MaxEdges > 0 && edges >= lim.MaxEdges {
			return nil, fmt.Errorf("graph: edge list exceeds the %d-edge limit", lim.MaxEdges)
		}
		b.AddEdge(a, c)
		edges++
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing header")
	}
	if wantEdges >= 0 && edges != wantEdges {
		return nil, fmt.Errorf("graph: header promised %d edges, found %d", wantEdges, edges)
	}
	return b.Graph(), nil
}

func bN(b *Builder) int { return b.n }

// WriteDOT renders the view in Graphviz DOT format. When labels is
// non-nil, vertices are colored by their component label (cycling a
// small palette); dead edges are drawn dashed.
func WriteDOT(w io.Writer, view *Sub, labels []int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph G {")
	fmt.Fprintln(bw, "  node [shape=circle, style=filled];")
	palette := []string{
		"lightblue", "lightcoral", "lightgreen", "gold", "plum",
		"lightsalmon", "paleturquoise", "khaki",
	}
	view.Members().ForEach(func(v int) {
		color := "white"
		if labels != nil && labels[v] != Unreachable {
			color = palette[labels[v]%len(palette)]
		}
		fmt.Fprintf(bw, "  %d [fillcolor=%s];\n", v, color)
	})
	g := view.Base()
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(e)
		if !view.Has(u) || !view.Has(v) {
			continue
		}
		attr := ""
		if !view.EdgeAlive(e) {
			attr = " [style=dashed, color=gray]"
		}
		fmt.Fprintf(bw, "  %d -- %d%s;\n", u, v, attr)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
