package loader

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/graphbig/graphbig-go/internal/property"
)

// readSNAPSerial is the line-at-a-time SNAP reader that ReadSNAP
// replaced: strings.Fields per line, AddVertex at each first mention and
// AddEdge per arc. ReadSNAP must return the same graph, or the same
// error, for every input.
func readSNAPSerial(r io.Reader) (*property.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("loader: gzip: %w", err)
		}
		defer zr.Close()
		br = bufio.NewReaderSize(zr, 1<<20)
	}
	g := property.New(snapOptions)
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo, edges := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 && len(f) != 3 {
			return nil, fmt.Errorf("loader: line %d: want `src dst [weight]`, got %q", lineNo, line)
		}
		src, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		dst, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
		}
		w := 1.0
		if len(f) == 3 {
			if w, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, fmt.Errorf("loader: line %d: %w", lineNo, err)
			}
		}
		g.AddVertex(property.VertexID(src))
		g.AddVertex(property.VertexID(dst))
		if err := g.AddEdge(property.VertexID(src), property.VertexID(dst), w); err != nil {
			return nil, err
		}
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if edges == 0 {
		return nil, fmt.Errorf("loader: no edges in SNAP input")
	}
	return g, nil
}

func FuzzReadSNAP(f *testing.F) {
	f.Add([]byte("0 1\n1 2 2.5\n2 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := readSNAPSerial(bytes.NewReader(data))
		got, gerr := ReadSNAP(bytes.NewReader(data))
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("errors differ: serial %v, ReadSNAP %v", werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadSNAP graph differs from the serial replay")
		}
	})
}

func FuzzRead(f *testing.F) {
	f.Add([]byte("# graphbig v1 directed=false\nv 1\nv 2\ne 1 2 3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := property.Validate(g); err != nil {
			t.Fatalf("Read built an inconsistent graph: %v", err)
		}
	})
}

// TestReadSNAPMatchesSerial runs the differential on inputs large enough
// for the bulk builder to split the fill across workers.
func TestReadSNAPMatchesSerial(t *testing.T) {
	var buf bytes.Buffer
	x := uint64(12345)
	for i := range 20000 {
		x = x*6364136223846793005 + 1442695040888963407
		src, dst := x>>50, x>>20%3000
		switch i % 7 {
		case 0:
			fmt.Fprintf(&buf, "%d\t%d\n", src, src) // self loop
		case 1:
			fmt.Fprintf(&buf, "# comment %d\n", i)
		case 2:
			fmt.Fprintf(&buf, "%d %d %d.5\n", src<<40|dst, dst, i%9) // sparse 64-bit IDs
		default:
			fmt.Fprintf(&buf, " %d  %d \n%d %d\n", src, dst, src, dst) // duplicates
		}
	}
	want, err := readSNAPSerial(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSNAP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ReadSNAP graph differs from the serial replay")
	}
}
