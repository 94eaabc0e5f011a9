package protocol

import (
	"fmt"

	"slamshare/internal/codec"
)

// TypeSessionToken carries a resumable session token: downlink from a
// front piggybacked on poses (see PoseMsg.Token), uplink from a
// reconnecting client presenting its newest token to whichever front
// replica answers the dial. Clients without CapResume never send or
// receive it.
const TypeSessionToken = byte(14)

// sessionTokenLen is the exact SessionTokenMsg encoding size.
const sessionTokenLen = 4 + 4 + 8

// SessionTokenMsg is the resumable session token: who the session is
// and which shard owns it at what handoff epoch. That is all a
// replacement front reads to adopt the session mid-stream; the
// client's own ledger decides what it resends.
type SessionTokenMsg struct {
	ClientID uint32
	Shard    uint32 // current owning shard index
	Epoch    uint64 // session's newest handoff epoch
}

// Encode serializes the token.
func (m *SessionTokenMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, sessionTokenLen)}
	w.U32(m.ClientID)
	w.U32(m.Shard)
	w.U64(m.Epoch)
	return w.B
}

// DecodeSessionTokenMsg reverses Encode. Strict: the payload is exactly
// sessionTokenLen bytes.
func DecodeSessionTokenMsg(data []byte) (*SessionTokenMsg, error) {
	if len(data) != sessionTokenLen {
		return nil, fmt.Errorf("protocol: bad session token length %d", len(data))
	}
	r := codec.NewReader(data)
	return &SessionTokenMsg{ClientID: r.U32(), Shard: r.U32(), Epoch: r.U64()}, nil
}
