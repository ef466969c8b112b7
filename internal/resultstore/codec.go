package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"apres/internal/stats"
)

// An entry file is one JSON header line followed by the result's counters
// as fixed-width binary blocks:
//
//	{"key":…,"result":{…,"Total":{zeros},"PerSM":null,…}}\n   the Entry, counters zeroed
//	Total                                                     one block
//	PerSM[0] … PerSM[NumSMs-1]                                one block each; none when PerSM is nil
//
// A block is one stats.Stats as little-endian int64s in field order. The
// counters are most of an entry (16 blocks on a 15-SM run) and, as JSON,
// nearly all of a read: encoding/json matches every field name of every
// block by reflection. As blocks they decode by position, with no names to
// match and no text to scan. The header stays JSON because it is the part
// people read (`head -1 <entry> | jq`), and because its shape — Config,
// LoadStats, Timeline — is not fixed. binary.Write/Read rather than
// binary.Append/Decode: the same bytes, and the module targets Go 1.22.

// blockSize is the width of one counter block.
var blockSize = binary.Size(stats.Stats{})

// encodeEntry renders e as an entry file. It refuses a PerSM that is
// neither nil nor one block per configured SM, which no decoder could tell
// apart from nil.
func encodeEntry(e *Entry) ([]byte, error) {
	res := &e.Result
	if res.PerSM != nil && (len(res.PerSM) == 0 || len(res.PerSM) != res.Config.NumSMs) {
		return nil, fmt.Errorf("%d per-SM counter blocks for %d SMs", len(res.PerSM), res.Config.NumSMs)
	}
	header, err := marshalHeader(e)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, len(header)+1+(1+len(res.PerSM))*blockSize))
	buf.Write(header)
	buf.WriteByte('\n')
	// Writes into a bytes.Buffer of fixed-size values cannot fail.
	_ = binary.Write(buf, binary.LittleEndian, &res.Total)
	if res.PerSM != nil {
		_ = binary.Write(buf, binary.LittleEndian, res.PerSM)
	}
	return buf.Bytes(), nil
}

// decodeEntry parses an entry file. It accepts exactly what encodeEntry
// writes: a header that marshalHeader gives back byte for byte, then a
// whole number of blocks — one, or one plus Config.NumSMs — and nothing
// after them. Anything else (a torn write, a hand-edited header, a file
// of another layout) is an error, never a partial entry.
func decodeEntry(data []byte) (Entry, error) {
	n := bytes.IndexByte(data, '\n')
	if n < 0 {
		return Entry{}, errors.New("no header line")
	}
	header, blocks := data[:n], data[n+1:]
	var e Entry
	if err := json.Unmarshal(header, &e); err != nil {
		return Entry{}, err
	}
	if canon, err := marshalHeader(&e); err != nil || !bytes.Equal(canon, header) {
		return Entry{}, errors.New("header is not in the form encodeEntry writes")
	}
	perSM := len(blocks)/blockSize - 1
	if len(blocks)%blockSize != 0 || perSM < 0 || (perSM > 0 && perSM != e.Result.Config.NumSMs) {
		return Entry{}, fmt.Errorf("%d counter bytes for %d SMs", len(blocks), e.Result.Config.NumSMs)
	}
	counters := make([]stats.Stats, 1+perSM)
	if err := binary.Read(bytes.NewReader(blocks), binary.LittleEndian, counters); err != nil {
		return Entry{}, err
	}
	e.Result.Total = counters[0]
	if perSM > 0 {
		e.Result.PerSM = counters[1:]
	}
	return e, nil
}

// marshalHeader returns e's header line, without its newline: e as JSON
// with Result.Total and Result.PerSM zeroed.
func marshalHeader(e *Entry) ([]byte, error) {
	h := *e
	h.Result.Total, h.Result.PerSM = stats.Stats{}, nil
	return json.Marshal(&h)
}
