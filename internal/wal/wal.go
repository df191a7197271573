// Package wal implements graphctd's write-ahead batch log: an append-only
// file recording every ingest batch applied to a live graph since its
// last durable snapshot. Each record carries the client's batch_id and
// the batch itself in the existing GCTU wire framing (internal/stream),
// under a per-record CRC32C so a torn tail — the normal end state of a
// crashed process — is detected and recovery stops at the last intact
// record instead of replaying garbage.
//
// A log is a segment: it is created when a durable snapshot is committed
// (the segment's base epoch), accumulates the batches applied on top of
// that snapshot, and is deleted once a newer snapshot makes it redundant.
// Warm restart = load the newest durable snapshot + replay the segments
// based at or after its epoch, in order.
//
// File layout, all fields little-endian:
//
//	header  "GCTW" 0x01, baseEpoch uint64
//	records repeated:
//	    length uint32  payload bytes
//	    crc32c uint32  Castagnoli checksum of the payload
//	    payload:
//	        idLen   uvarint, then idLen bytes of batch_id (may be empty)
//	        updates GCTU frame (stream.EncodeUpdates)
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"graphct/internal/failpoint"
	"graphct/internal/stream"
)

var logMagic = [5]byte{'G', 'C', 'T', 'W', 1}

const (
	headerLen = len(logMagic) + 8
	recHdrLen = 8
	// maxRecordBytes bounds one record on decode; anything larger is
	// treated as corruption, not an allocation request.
	maxRecordBytes = 1 << 30
	// maxBatchIDLen mirrors (generously) the server's 128-byte batch_id
	// cap, so a corrupt length prefix cannot claim most of the payload.
	maxBatchIDLen = 4096
)

// ErrFormat reports a log whose header is malformed — not a torn tail but
// a file that was never a valid log (or had its head destroyed).
var ErrFormat = errors.New("wal: malformed log")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one logged batch.
type Record struct {
	BatchID string
	Updates []stream.Update
}

// Log is an open segment accepting appends. Callers serialize Append
// calls (graphctd holds the live graph's writer lock across them).
type Log struct {
	f       *os.File
	path    string
	appends int64
}

// Create creates (or truncates) a segment at path with the given base
// epoch, fsyncing the header and the parent directory before returning,
// so a crash immediately after a snapshot commit still finds the segment.
func Create(path string, baseEpoch uint64) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerLen)
	copy(hdr, logMagic[:])
	binary.LittleEndian.PutUint64(hdr[5:], baseEpoch)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, path: path}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Path returns the segment's file path.
func (l *Log) Path() string { return l.path }

// Appends returns how many records this Log has appended.
func (l *Log) Appends() int64 { return l.appends }

// Append durably logs one batch: when Append returns nil the record is
// fsynced and will be replayed by recovery. The wal.append failpoint
// fires before any I/O so an injected failure writes nothing.
func (l *Log) Append(batchID string, ups []stream.Update) error {
	if err := failpoint.Eval(failpoint.WALAppend); err != nil {
		return err
	}
	payload, err := encodePayload(batchID, ups)
	if err != nil {
		return err
	}
	rec := make([]byte, recHdrLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
	copy(rec[recHdrLen:], payload)
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.appends++
	return nil
}

// Close closes the segment file.
func (l *Log) Close() error { return l.f.Close() }

func encodePayload(batchID string, ups []stream.Update) ([]byte, error) {
	if len(batchID) > maxBatchIDLen {
		return nil, fmt.Errorf("wal: batch id of %d bytes exceeds %d", len(batchID), maxBatchIDLen)
	}
	var buf bytes.Buffer
	var idLen [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(idLen[:], uint64(len(batchID)))
	buf.Write(idLen[:n])
	buf.WriteString(batchID)
	if err := stream.EncodeUpdates(&buf, ups); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeAll parses a whole log image. A malformed header returns ErrFormat
// and no records. A torn or corrupt tail — truncated record header,
// truncated payload, CRC mismatch, undecodable batch — ends the decode at
// the last intact record with torn=true; everything before it is returned.
// decodeAll never panics on arbitrary input (the FuzzWALDecode property).
func decodeAll(data []byte) (baseEpoch uint64, recs []Record, torn bool, err error) {
	if len(data) < headerLen {
		return 0, nil, false, fmt.Errorf("%w: %d bytes, header needs %d", ErrFormat, len(data), headerLen)
	}
	if [5]byte(data[:5]) != logMagic {
		return 0, nil, false, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:5])
	}
	baseEpoch = binary.LittleEndian.Uint64(data[5:])
	rest := data[headerLen:]
	for len(rest) > 0 {
		if len(rest) < recHdrLen {
			return baseEpoch, recs, true, nil
		}
		length := binary.LittleEndian.Uint32(rest[0:])
		if uint64(length) > maxRecordBytes || uint64(len(rest)-recHdrLen) < uint64(length) {
			return baseEpoch, recs, true, nil
		}
		payload := rest[recHdrLen : recHdrLen+int(length)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return baseEpoch, recs, true, nil
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			// The CRC matched but the content does not parse: treat as
			// corruption and stop, like any other damaged tail.
			return baseEpoch, recs, true, nil
		}
		recs = append(recs, rec)
		rest = rest[recHdrLen+int(length):]
	}
	return baseEpoch, recs, false, nil
}

func decodePayload(payload []byte) (Record, error) {
	br := bytes.NewReader(payload)
	idLen, err := binary.ReadUvarint(br)
	if err != nil || idLen > maxBatchIDLen {
		return Record{}, fmt.Errorf("wal: bad batch id length")
	}
	id := make([]byte, idLen)
	if _, err := br.Read(id); err != nil && idLen > 0 {
		return Record{}, fmt.Errorf("wal: truncated batch id")
	}
	if uint64(len(id)) != idLen {
		return Record{}, fmt.Errorf("wal: truncated batch id")
	}
	ups, err := stream.DecodeUpdates(br, 0)
	if err != nil {
		return Record{}, err
	}
	return Record{BatchID: string(id), Updates: ups}, nil
}

// Decode parses a whole in-memory log image with decodeAll's torn-tail
// semantics. The follower replication tailer uses it to apply segments
// fetched over HTTP, where a torn tail just means the leader is still
// appending — the next poll picks up the rest.
func Decode(data []byte) (baseEpoch uint64, recs []Record, torn bool, err error) {
	return decodeAll(data)
}

// Replay reads the segment at path and calls fn for each intact record in
// append order, stopping at the first torn or corrupt frame. It returns
// the segment's base epoch, how many records were replayed, and whether
// the log ended in a damaged tail. fn returning an error aborts the
// replay and propagates.
func Replay(path string, fn func(Record) error) (baseEpoch uint64, n int, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	baseEpoch, recs, torn, err := decodeAll(data)
	if err != nil {
		return 0, 0, false, fmt.Errorf("%s: %w", path, err)
	}
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return baseEpoch, n, torn, err
		}
		n++
	}
	return baseEpoch, n, torn, nil
}

// syncDir fsyncs a directory so segment creation survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
