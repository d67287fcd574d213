package monitordb

// Binary columnar segment codec — the durable checkpoint image of the
// store. Unlike the JSONL codec (codec.go), which re-ingests samples
// through the normal write path and therefore re-runs grid detection on
// whatever order it reads, the segment format serializes the columnar
// layout itself: grid base/stride, value column, validity bitmap, row
// section and the detection-backoff counter, per series. A store read back
// from a segment is field-for-field identical to the one that wrote it, so
// every future write and window advance behaves exactly as it would have
// without the round trip — the property the crash-recovery equivalence
// tests pin.
//
// Layout (all integers little-endian, strings length-prefixed):
//
//	magic "FSSEG001"
//	epoch, windowStart, windowEnd (unix nanos), retention (nanos)
//	series count, then per series (sorted by machine, then metric):
//	  id, metric, base, stride, nGrid, nextDetect
//	  vals  (count + float64 column)
//	  valid (count + uint64 bitmap words)
//	  rowT/rowV (count + parallel columns)
//	power count, then per machine (sorted): id, events (time, on)
//	placement count, then per VM (sorted): id, records (month, host)
//	firstSeen count, then per machine (sorted): id, time
//
// hostLoad is not stored: it is an index over placement and is rebuilt on
// read. (A live store can briefly hold zero-valued hostLoad entries where
// a placement was overwritten; reconstruction omits them. Absent and zero
// entries are indistinguishable through every query and through Advance's
// decrement-then-delete-at-zero path, so the difference is unobservable.)

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"failscope/internal/model"
)

const segmentMagic = "FSSEG001"

// maxSegmentStr bounds decoded string lengths so a corrupt length prefix
// cannot drive a giant allocation.
const maxSegmentStr = 1 << 20

type segWriter struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (sw *segWriter) u64(v uint64) {
	if sw.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(sw.buf[:], v)
	_, sw.err = sw.w.Write(sw.buf[:])
}

func (sw *segWriter) i64(v int64)   { sw.u64(uint64(v)) }
func (sw *segWriter) f64(v float64) { sw.u64(math.Float64bits(v)) }

func (sw *segWriter) str(s string) {
	sw.u64(uint64(len(s)))
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.WriteString(s)
}

func (sw *segWriter) f64s(vals []float64) {
	sw.u64(uint64(len(vals)))
	for _, v := range vals {
		sw.f64(v)
	}
}

func (sw *segWriter) u64s(vals []uint64) {
	sw.u64(uint64(len(vals)))
	for _, v := range vals {
		sw.u64(v)
	}
}

func (sw *segWriter) i64s(vals []int64) {
	sw.u64(uint64(len(vals)))
	for _, v := range vals {
		sw.i64(v)
	}
}

// zeroTimeNanos marks a zero time.Time in the nanos encoding; a real
// instant can never produce it (it is outside time.Time's nano range).
const zeroTimeNanos = math.MinInt64

func (sw *segWriter) timeNanos(t time.Time) {
	if t.IsZero() {
		sw.i64(zeroTimeNanos)
		return
	}
	sw.i64(t.UnixNano())
}

type segReader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (sr *segReader) u64() uint64 {
	if sr.err != nil {
		return 0
	}
	if _, sr.err = io.ReadFull(sr.r, sr.buf[:]); sr.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(sr.buf[:])
}

func (sr *segReader) i64() int64   { return int64(sr.u64()) }
func (sr *segReader) f64() float64 { return math.Float64frombits(sr.u64()) }

func (sr *segReader) count(what string) int {
	n := sr.u64()
	if sr.err == nil && n > maxSegmentStr*64 {
		sr.err = fmt.Errorf("monitordb: segment %s count %d implausible", what, n)
	}
	return int(n)
}

func (sr *segReader) str() string {
	n := sr.u64()
	if sr.err != nil {
		return ""
	}
	if n > maxSegmentStr {
		sr.err = fmt.Errorf("monitordb: segment string length %d implausible", n)
		return ""
	}
	b := make([]byte, n)
	if _, sr.err = io.ReadFull(sr.r, b); sr.err != nil {
		return ""
	}
	return string(b)
}

func (sr *segReader) f64s(what string) []float64 {
	n := sr.count(what)
	if sr.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = sr.f64()
	}
	return out
}

func (sr *segReader) u64s(what string) []uint64 {
	n := sr.count(what)
	if sr.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = sr.u64()
	}
	return out
}

func (sr *segReader) i64s(what string) []int64 {
	n := sr.count(what)
	if sr.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = sr.i64()
	}
	return out
}

func (sr *segReader) timeNanos() time.Time {
	n := sr.i64()
	if n == zeroTimeNanos {
		return time.Time{}
	}
	return sampleTime(n)
}

// WriteSegment serializes the store's complete state in the binary
// columnar segment format. Iteration orders are sorted, so the same store
// always produces the same bytes.
func (db *DB) WriteSegment(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()

	sw := &segWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := sw.w.WriteString(segmentMagic); err != nil {
		return err
	}
	sw.timeNanos(db.epoch)
	sw.timeNanos(db.windowStart)
	sw.timeNanos(db.windowEnd)
	sw.i64(int64(db.retention))

	keys := make([]seriesKey, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].metric < keys[j].metric
	})
	sw.u64(uint64(len(keys)))
	for _, k := range keys {
		s := db.series[k]
		sw.str(string(k.id))
		sw.i64(int64(k.metric))
		sw.i64(s.base)
		sw.i64(s.stride)
		sw.i64(int64(s.nGrid))
		sw.i64(int64(s.nextDetect))
		sw.f64s(s.vals)
		sw.u64s(s.valid)
		sw.i64s(s.rowT)
		sw.f64s(s.rowV)
	}

	powerIDs := make([]model.MachineID, 0, len(db.power))
	for id := range db.power {
		powerIDs = append(powerIDs, id)
	}
	sort.Slice(powerIDs, func(i, j int) bool { return powerIDs[i] < powerIDs[j] })
	sw.u64(uint64(len(powerIDs)))
	for _, id := range powerIDs {
		sw.str(string(id))
		events := db.power[id]
		sw.u64(uint64(len(events)))
		for _, ev := range events {
			sw.timeNanos(ev.Time)
			on := uint64(0)
			if ev.On {
				on = 1
			}
			sw.u64(on)
		}
	}

	vms := make([]model.MachineID, 0, len(db.placement))
	for id := range db.placement {
		vms = append(vms, id)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	sw.u64(uint64(len(vms)))
	for _, id := range vms {
		sw.str(string(id))
		recs := db.placement[id]
		sw.u64(uint64(len(recs)))
		for _, rec := range recs {
			sw.timeNanos(rec.month)
			sw.str(string(rec.host))
		}
	}

	seen := make([]model.MachineID, 0, len(db.firstSeen))
	for id := range db.firstSeen {
		seen = append(seen, id)
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
	sw.u64(uint64(len(seen)))
	for _, id := range seen {
		sw.str(string(id))
		sw.timeNanos(db.firstSeen[id])
	}

	if sw.err != nil {
		return fmt.Errorf("monitordb: write segment: %w", sw.err)
	}
	return sw.w.Flush()
}

// ReadSegment reconstructs a store from a segment stream. The returned DB
// carries no registry or logger; callers re-instrument it. The reader is
// consumed exactly through the segment's final byte, so segments can be
// embedded in larger streams.
func ReadSegment(r io.Reader) (*DB, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	sr := &segReader{r: br}
	magic := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("monitordb: read segment magic: %w", err)
	}
	if string(magic) != segmentMagic {
		return nil, fmt.Errorf("monitordb: bad segment magic %q", magic)
	}

	epoch := sr.timeNanos()
	windowStart := sr.timeNanos()
	windowEnd := sr.timeNanos()
	retention := time.Duration(sr.i64())
	db := New(epoch, retention)
	db.windowStart, db.windowEnd = windowStart, windowEnd

	nSeries := sr.count("series")
	for i := 0; i < nSeries && sr.err == nil; i++ {
		id := model.MachineID(sr.str())
		metric := Metric(sr.i64())
		s := &colSeries{
			base:       sr.i64(),
			stride:     sr.i64(),
			nGrid:      int(sr.i64()),
			nextDetect: int(sr.i64()),
		}
		s.vals = sr.f64s("vals")
		s.valid = sr.u64s("valid")
		s.rowT = sr.i64s("rowT")
		s.rowV = sr.f64s("rowV")
		if sr.err == nil {
			if len(s.rowT) != len(s.rowV) {
				return nil, fmt.Errorf("monitordb: segment series %s/%s: row columns misaligned (%d vs %d)",
					id, metric, len(s.rowT), len(s.rowV))
			}
			if want := (len(s.vals) + 63) / 64; len(s.valid) != want {
				return nil, fmt.Errorf("monitordb: segment series %s/%s: bitmap has %d words, want %d",
					id, metric, len(s.valid), want)
			}
			db.series[seriesKey{id, metric}] = s
			db.totals.move(seriesTerms{}, s.terms())
		}
	}

	nPower := sr.count("power")
	for i := 0; i < nPower && sr.err == nil; i++ {
		id := model.MachineID(sr.str())
		n := sr.count("power events")
		events := make([]PowerEvent, 0, n)
		for j := 0; j < n && sr.err == nil; j++ {
			t := sr.timeNanos()
			events = append(events, PowerEvent{Time: t, On: sr.u64() != 0})
		}
		if sr.err == nil {
			db.power[id] = events
		}
	}

	nPlace := sr.count("placement")
	for i := 0; i < nPlace && sr.err == nil; i++ {
		id := model.MachineID(sr.str())
		n := sr.count("placement records")
		recs := make([]placementRecord, 0, n)
		for j := 0; j < n && sr.err == nil; j++ {
			month := sr.timeNanos()
			host := model.MachineID(sr.str())
			recs = append(recs, placementRecord{month: month, host: host})
			db.hostLoad[hostMonthKey{host, month}]++
		}
		if sr.err == nil {
			db.placement[id] = recs
		}
	}

	nSeen := sr.count("firstSeen")
	for i := 0; i < nSeen && sr.err == nil; i++ {
		id := model.MachineID(sr.str())
		db.firstSeen[id] = sr.timeNanos()
	}

	if sr.err != nil {
		return nil, fmt.Errorf("monitordb: read segment: %w", sr.err)
	}
	return db, nil
}
