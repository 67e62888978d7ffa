package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// writeTrace writes the traced pass's spans as Chrome trace events
// (chrome://tracing, Perfetto): one "X" event per span, one track (tid) per
// node. Every span carries an id and the id of the span that caused it: the
// root span of a client's operation for a request leaving or a reply
// reaching that client and for an Execute on its behalf, when the span
// starts inside that operation's interval; the workload's span otherwise
// (replica-to-replica traffic, checkpoints). Span ids: 1 is the workload,
// then operations, then their children.
func (m *measured) writeTrace(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+m.w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)

	from := m.before.at
	until := from + int64(spanWindow)
	if until > m.after.at {
		until = m.after.at
	}
	const workloadID = 1
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","traceEvents":[`+"\n")
	fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":0,"ts":%.3f,"dur":%.3f,"args":{"id":%d}}`,
		"workload "+m.w.name, us(from), us(until-from), workloadID)

	// Root spans: each client's operations that start inside the span
	// window, in start order so a child can find its parent by search.
	type root struct {
		id         int
		start, end int64
	}
	roots := make(map[int][]root) // client id -> operations
	next := workloadID + 1
	kinds := []string{"op 0/0", "op 4/0", "op 0/4", "op get", "op set"}
	for idx, samples := range m.clientSpans {
		id := clientBase + idx
		for i, s := range samples {
			if s.start < from || s.start >= until {
				continue
			}
			roots[id] = append(roots[id], root{id: next, start: s.start, end: s.end})
			fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"client":%d,"index":%d,"ok":%t}}`,
				kinds[s.kind], id, us(s.start), us(s.end-s.start), next, workloadID, id, i, s.ok)
			next++
		}
	}
	parentOf := func(client int, at int64) int {
		ops := roots[client]
		i := sort.Search(len(ops), func(i int) bool { return ops[i].start > at }) - 1
		if i >= 0 && at < ops[i].end {
			return ops[i].id
		}
		return workloadID
	}

	m.rec.each(func(_ int, n *nodeRecord) {
		for _, s := range n.spans {
			parent := workloadID
			if s.client >= 0 {
				parent = parentOf(s.client, s.start)
			}
			fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d`,
				s.name, s.node, us(s.start), us(s.end-s.start), next, parent)
			if s.peer >= 0 {
				fmt.Fprintf(w, `,"dst":%d,"bytes":%d`, s.peer, s.bytes)
			}
			fmt.Fprint(w, "}}")
			next++
		}
	})
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
