// Package loader serializes property graphs to a plain-text edge-list
// format so datasets can be generated once (cmd/graphbig-gen) and reused
// across tool invocations, mirroring how the original suite ships its
// datasets as files.
//
// Format ("graphbig edge-list v1"):
//
//	# graphbig v1 directed=<bool>
//	v <id>
//	e <src> <dst> <weight>
//
// Vertex lines precede edge lines. Undirected graphs store each edge once.
package loader

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/graphbig/graphbig-go/internal/property"
)

// Write streams g to w in edge-list format.
func Write(w io.Writer, g *property.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# graphbig v1 directed=%v\n", g.Directed()); err != nil {
		return err
	}
	var err error
	g.ForEachVertex(func(v *property.Vertex) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "v %d\n", v.ID)
	})
	if err != nil {
		return err
	}
	g.ForEachVertex(func(v *property.Vertex) {
		if err != nil {
			return
		}
		for _, e := range v.Out {
			if !g.Directed() && e.To < v.ID {
				continue // mirrored record; the canonical copy suffices
			}
			if _, err = fmt.Fprintf(bw, "e %d %d %g\n", v.ID, e.To, e.Weight); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses an edge-list stream into a new property graph.
func Read(r io.Reader) (*property.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("loader: empty input")
	}
	head := sc.Text()
	if !strings.HasPrefix(head, "# graphbig v1") {
		return nil, fmt.Errorf("loader: bad header %q", head)
	}
	directed := strings.Contains(head, "directed=true")
	g := property.New(property.Options{Directed: directed, TrackInEdges: directed})
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue // white space only
		}
		switch fields[0] {
		case "v":
			if len(fields) != 2 {
				return nil, fmt.Errorf("loader: line %d: bad vertex line", lineNo)
			}
			id, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
			}
			g.AddVertex(property.VertexID(id))
		case "e":
			if len(fields) != 4 {
				return nil, fmt.Errorf("loader: line %d: bad edge line", lineNo)
			}
			src, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
			}
			dst, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
			}
			if err := g.AddEdge(property.VertexID(src), property.VertexID(dst), w); err != nil {
				return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("loader: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadSNAP parses a SNAP-style edge list: one `src dst [weight]` pair
// per line, whitespace-separated, with `#` comment lines (the header
// convention of the snap.stanford.edu datasets). Vertices are created
// on first mention; absent weights default to 1; duplicate arcs and
// self loops are kept. The graph is directed with in-edge tracking, so
// engine pull phases and reverse-CSR workloads run on real datasets
// exactly as on generated ones. The stream may be gzip-compressed — the
// reader sniffs the two magic bytes rather than trusting a file
// extension. The graph is built in bulk. It equals the graph built by
// adding, through the primitives, each vertex at its first mention and
// each arc in file order.
func ReadSNAP(r io.Reader) (*property.Graph, error) {
	b, err := parseSNAP(r)
	if err != nil {
		return nil, err
	}
	return b.Build(snapOptions, 0)
}

// snapOptions are the graph options of every SNAP load.
var snapOptions = property.Options{Directed: true, TrackInEdges: true}

// parseSNAP reads a SNAP edge list into a construction stream: vertices
// in first-mention order, arcs in file order.
func parseSNAP(r io.Reader) (*property.Bulk, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("loader: gzip: %w", err)
		}
		defer zr.Close()
		br = bufio.NewReaderSize(zr, 1<<20)
	}
	b := &property.Bulk{}
	index := make(map[property.VertexID]int32)
	mention := func(id property.VertexID) int32 {
		if i, ok := index[id]; ok {
			return i
		}
		i := property.Index32(len(b.IDs))
		index[id] = i
		b.IDs = append(b.IDs, id)
		b.At = append(b.At, len(b.Src))
		return i
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var f [][]byte
	for lineNo := 1; sc.Scan(); lineNo++ {
		f = fields(f, sc.Bytes())
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		if len(f) != 2 && len(f) != 3 {
			return nil, fmt.Errorf("loader: line %d: want `src dst [weight]`, got %q",
				lineNo, strings.TrimSpace(sc.Text()))
		}
		src, err := parseID(f[0])
		if err != nil {
			return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		dst, err := parseID(f[1])
		if err != nil {
			return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		w := 1.0
		if len(f) == 3 {
			if w, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
				return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
			}
		}
		s := mention(property.VertexID(src))
		d := mention(property.VertexID(dst))
		b.Src, b.Dst, b.W = append(b.Src, s), append(b.Dst, d), append(b.W, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(b.Src) == 0 {
		return nil, fmt.Errorf("loader: no edges in SNAP input")
	}
	return b, nil
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields splits line around white space as bytes.Fields does, reusing
// buf; only lines with non-ASCII bytes go to bytes.Fields itself.
func fields(buf [][]byte, line []byte) [][]byte {
	buf = buf[:0]
	start := -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return bytes.Fields(line)
		case asciiSpace[c]:
			if start >= 0 {
				buf = append(buf, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		buf = append(buf, line[start:])
	}
	return buf
}

// parseID is strconv.ParseUint(string(b), 10, 64) without the string
// conversion in the common case: up to 19 digits cannot overflow.
func parseID(b []byte) (uint64, error) {
	if len(b) > 19 {
		return strconv.ParseUint(string(b), 10, 64)
	}
	var x uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.ParseUint(string(b), 10, 64)
		}
		x = x*10 + uint64(c-'0')
	}
	return x, nil
}

// LoadSNAP reads a SNAP edge list (plain or gzipped) from path.
func LoadSNAP(path string) (*property.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSNAP(f)
}

// Save writes g to path.
func Save(path string, g *property.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a graph from path.
func Load(path string) (*property.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
