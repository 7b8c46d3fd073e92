package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
)

// spanName identifies what a span timed: a table call, or a replayed
// call into one of the layers below the table.
type spanName uint8

const (
	spGet spanName = iota
	spBatch
	spCount
	spSelect
	spInsert
	spDelete
	spLQGet
	spLQGetBatch
	spLQCount
	spLQRange
	spLQFreeze
	spLQFreezeDelta
	spQTInsert
	spQTDelete
	spQTRange
	spSegFind
	spSegBlock
	spSegSeek
	spSegScan
	spSegSeal
	spSegMerge
	spWALAppend
	spWALFold
	spSolve
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"spatialdb.Get", "spatialdb.GetBatch", "spatialdb.CountRange", "spatialdb.Select",
	"spatialdb.Insert", "spatialdb.Delete",
	"linearquad.Get", "linearquad.GetBatch", "linearquad.CountRange", "linearquad.Range",
	"linearquad.Freeze", "linearquad.FreezeDelta",
	"quadtree.Insert", "quadtree.Delete", "quadtree.RangeBudgeted",
	"segment.Find", "segment.Block", "segment.SeekGE", "segment.Scan",
	"segment.Seal", "segment.Merge",
	"wal.Append", "wal.Fold",
	"core.Solve",
}

// span is one timed call. start and end are nanoseconds since the
// run's clock base; parent indexes the span that caused this one
// (-1 for a root); op groups every span of one table call.
type span struct {
	name       spanName
	parent     int32
	op         uint64
	start, end int64
}

// writeSpans writes spans as gzip-compressed CSV, one span a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "index,name,start_ns,end_ns,parent,op")
	for i, sp := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanNames[sp.name], sp.start, sp.end, sp.parent, sp.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
