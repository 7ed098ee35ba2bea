package dnsbl

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"tasterschoice/internal/domain"
)

// DNS over TCP (RFC 1035 §4.2.2): each message is prefixed with a
// two-byte big-endian length. Resolvers, this package's Client among
// them, fall back to TCP when a UDP answer is truncated; long TXT
// listing reasons can need it.

// ReadTCPMessage reads one length-prefixed DNS message.
func ReadTCPMessage(r io.Reader) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lenBuf[:])
	if n == 0 {
		return nil, fmt.Errorf("dnsbl: zero-length TCP message")
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// WriteTCPMessage writes one length-prefixed DNS message.
func WriteTCPMessage(w io.Writer, msg []byte) error {
	if len(msg) > 0xffff {
		return fmt.Errorf("dnsbl: message too large for TCP framing (%d)", len(msg))
	}
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(msg)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// ListedTCP queries over TCP (one connection per call).
func (c *Client) ListedTCP(d domain.Name) (bool, error) {
	req, id, err := c.request(d, TypeA)
	if err != nil {
		return false, err
	}
	resp, err := c.exchangeTCP(context.Background(), req, id)
	if err != nil {
		return false, err
	}
	return listedAnswer(resp)
}

// exchangeTCP performs one exchange over a fresh TCP connection to
// TCPAddr (Addr when unset), bounded like the UDP exchange by the
// per-attempt timeout and ctx.
func (c *Client) exchangeTCP(ctx context.Context, raw []byte, wantID uint16) (*Message, error) {
	addr := c.TCPAddr
	if addr == "" {
		addr = c.Addr
	}
	deadline := time.Now().Add(c.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	dialer := net.Dialer{Deadline: deadline}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, classify(err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now()) //nolint:errcheck
	})
	defer stop()
	conn.SetDeadline(deadline) //nolint:errcheck
	if err := WriteTCPMessage(conn, raw); err != nil {
		return nil, classify(err)
	}
	respRaw, err := ReadTCPMessage(conn)
	if err != nil {
		return nil, classify(err)
	}
	resp, err := Unpack(respRaw)
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != wantID || !resp.Header.Response {
		return nil, fmt.Errorf("dnsbl: mismatched TCP response")
	}
	return resp, nil
}
