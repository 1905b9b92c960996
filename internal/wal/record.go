package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Frame layout (all little-endian):
//
//	offset 0  u32  payload length
//	offset 4  u32  CRC32C over bytes 8..end (LSN + payload)
//	offset 8  u64  LSN
//	offset 16 ...  payload
const frameHeaderSize = 16

// readBufferSize is the buffer recovery and replay read segments
// through: one read syscall per 64 KiB instead of two per record.
const readBufferSize = 64 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSize is the on-disk size of a frame carrying payload.
func frameSize(payload []byte) int { return frameHeaderSize + len(payload) }

// appendFrame appends the frame for (lsn, payload) to dst.
func appendFrame(dst []byte, lsn LSN, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(lsn))
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// frameError describes why a frame failed validation — distinguishing
// a torn tail (recoverable on the last segment) from I/O problems.
type frameError struct {
	off    int64
	reason string
}

func (e *frameError) Error() string {
	return fmt.Sprintf("invalid frame at offset %d: %s", e.off, e.reason)
}

// readRecords scans the segment at path, whose first record must carry
// LSN first, calling fn (if non-nil) for each valid record in order.
// It returns the number of valid records, the byte offset just past
// the last valid frame (the truncation point for a torn tail), a
// *frameError if validation stopped early (nil if the file ended
// exactly on a frame boundary), and any I/O or callback error.
//
// Validation is strict: the length field is bounded, the LSN must be
// exactly the expected next LSN, and the CRC must match. Any mismatch
// stops the scan — on the last segment of a log that is a torn tail to
// truncate; anywhere else it is corruption.
//
// The file is read through a buffer, so validSize is summed from the
// sizes of the frames accepted, never taken from the file position,
// which runs ahead of them.
func readRecords(path string, first LSN, fn func(lsn LSN, payload []byte) error) (records int64, validSize int64, ferr *frameError, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, readBufferSize)

	var hdr [frameHeaderSize]byte
	var payload []byte
	expect := first
	for {
		n, rerr := io.ReadFull(r, hdr[:])
		if rerr == io.EOF {
			return records, validSize, nil, nil
		}
		if rerr == io.ErrUnexpectedEOF {
			return records, validSize, &frameError{validSize, fmt.Sprintf("truncated header (%d of %d bytes)", n, frameHeaderSize)}, nil
		}
		if rerr != nil {
			return records, validSize, nil, rerr
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		if plen > maxRecordBytes {
			return records, validSize, &frameError{validSize, fmt.Sprintf("implausible payload length %d", plen)}, nil
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if n, rerr := io.ReadFull(r, payload); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return records, validSize, &frameError{validSize, fmt.Sprintf("truncated payload (%d of %d bytes)", n, plen)}, nil
			}
			return records, validSize, nil, rerr
		}
		lsn := LSN(binary.LittleEndian.Uint64(hdr[8:16]))
		crc := crc32.Update(0, castagnoli, hdr[8:16])
		crc = crc32.Update(crc, castagnoli, payload)
		if got := binary.LittleEndian.Uint32(hdr[4:8]); got != crc {
			return records, validSize, &frameError{validSize, fmt.Sprintf("CRC mismatch (stored %08x, computed %08x)", got, crc)}, nil
		}
		if lsn != expect {
			return records, validSize, &frameError{validSize, fmt.Sprintf("LSN %d, want %d", lsn, expect)}, nil
		}
		if fn != nil {
			if cberr := fn(lsn, payload); cberr != nil {
				return records, validSize, nil, cberr
			}
		}
		records++
		validSize += int64(frameHeaderSize) + int64(plen)
		expect++
	}
}
