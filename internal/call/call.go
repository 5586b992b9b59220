// Package call implements HYDRA's invocation machinery (§3.1, §4.1): Call
// objects that carry a serialized method invocation, the binary codec that
// marshals arguments, typed proxies synthesized from interface definitions
// ("transparent" invocation), manual encoders, and the device-side
// dispatcher that unmarshals a Call and runs the target method.
//
// A Call flows through a channel to the target device, is deserialized, the
// Offcode is invoked, and the return value travels back via the embedded
// return descriptor — mirroring the zero-copy channel walkthrough of §4.1.
package call

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hydra/internal/guid"
	"hydra/internal/odf"
)

// Call is one serialized method invocation.
type Call struct {
	Iface      guid.GUID // target interface
	Method     string
	Args       []any
	ReturnDesc uint64 // descriptor the callee uses to DMA the result back
}

// Reply is the result of an invocation.
type Reply struct {
	ReturnDesc uint64
	Results    []any
	Err        string // empty on success
}

// Marshaling errors.
var (
	ErrBadWire     = errors.New("call: malformed wire data")
	ErrUnsupported = errors.New("call: unsupported argument type")
	ErrTooLarge    = errors.New("call: value exceeds wire size limits")
)

// Value type tags on the wire.
const (
	tagBool byte = iota + 1
	tagInt64
	tagUint64
	tagFloat64
	tagString
	tagBytes
)

// valueSize is the wire size of one tagged value, or the error Marshal
// reports for it. Marshal sizes its buffer with it, so appendValue never
// grows the slice and never fails.
func valueSize(v any) (int, error) {
	switch x := v.(type) {
	case bool:
		return 2, nil
	case int, int64, uint64, float64:
		return 9, nil
	case string:
		if uint64(len(x)) > math.MaxUint32 {
			return 0, fmt.Errorf("%w: string of %d bytes", ErrTooLarge, len(x))
		}
		return 5 + len(x), nil
	case []byte:
		if uint64(len(x)) > math.MaxUint32 {
			return 0, fmt.Errorf("%w: blob of %d bytes", ErrTooLarge, len(x))
		}
		return 5 + len(x), nil
	default:
		return 0, fmt.Errorf("%w: %T", ErrUnsupported, v)
	}
}

// valuesSize sums valueSize over vs.
func valuesSize(vs []any) (int, error) {
	n := 0
	for _, v := range vs {
		sz, err := valueSize(v)
		if err != nil {
			return 0, err
		}
		n += sz
	}
	return n, nil
}

// appendValue appends one value valueSize has accepted.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case bool:
		if x {
			return append(b, tagBool, 1)
		}
		return append(b, tagBool, 0)
	case int:
		return appendValue(b, int64(x))
	case int64:
		b = append(b, tagInt64)
		return binary.LittleEndian.AppendUint64(b, uint64(x))
	case uint64:
		b = append(b, tagUint64)
		return binary.LittleEndian.AppendUint64(b, x)
	case float64:
		b = append(b, tagFloat64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	case string:
		b = append(b, tagString)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(x)))
		return append(b, x...)
	default: // []byte, the one remaining type valueSize accepts
		blob := v.([]byte)
		b = append(b, tagBytes)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(blob)))
		return append(b, blob...)
	}
}

func readValue(b []byte) (any, []byte, error) {
	if len(b) < 1 {
		return nil, nil, ErrBadWire
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagBool:
		if len(b) < 1 {
			return nil, nil, ErrBadWire
		}
		return b[0] != 0, b[1:], nil
	case tagInt64:
		if len(b) < 8 {
			return nil, nil, ErrBadWire
		}
		return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tagUint64:
		if len(b) < 8 {
			return nil, nil, ErrBadWire
		}
		return binary.LittleEndian.Uint64(b), b[8:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, ErrBadWire
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tagString:
		s, rest, err := readBlob(b)
		return string(s), rest, err
	case tagBytes:
		s, rest, err := readBlob(b)
		if err != nil {
			return nil, nil, err
		}
		return append([]byte(nil), s...), rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: tag %d", ErrBadWire, tag)
	}
}

func readBlob(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrBadWire
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 0 || n > len(b) {
		return nil, nil, ErrBadWire
	}
	return b[:n], b[n:], nil
}

// Marshal serializes a Call into a buffer sized exactly to the wire
// (one allocation, cap == len).
//
// Wire: 'C', iface u64, returnDesc u64, methodLen u16 + method,
// argc u16, tagged values. The u16 fields bound the method name and the
// argument count; exceeding either is ErrTooLarge, never a silent
// truncation (a truncated length would desynchronize the decoder into
// reading method bytes as argument tags).
func Marshal(c *Call) ([]byte, error) {
	if len(c.Method) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: method name of %d bytes", ErrTooLarge, len(c.Method))
	}
	if len(c.Args) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d arguments", ErrTooLarge, len(c.Args))
	}
	n, err := valuesSize(c.Args)
	if err != nil {
		return nil, fmt.Errorf("call %s: %w", c.Method, err)
	}
	b := make([]byte, 0, 1+8+8+2+len(c.Method)+2+n)
	b = append(b, 'C')
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Iface))
	b = binary.LittleEndian.AppendUint64(b, c.ReturnDesc)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Method)))
	b = append(b, c.Method...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Args)))
	for _, a := range c.Args {
		b = appendValue(b, a)
	}
	return b, nil
}

// Unmarshal parses a serialized Call into a fresh Call.
func Unmarshal(b []byte) (*Call, error) {
	c := new(Call)
	if err := DecodeCall(b, c); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeCall parses a serialized Call into c, reusing c's storage: the
// Args backing array is refilled in place when it is large enough, and
// c.Method keeps its string when the wire carries the same bytes. The
// decoded values themselves are fresh (strings and blobs never alias b).
// On error c's contents are unspecified.
func DecodeCall(b []byte, c *Call) error {
	if len(b) < 1+8+8+2 || b[0] != 'C' {
		return ErrBadWire
	}
	c.Iface = guid.GUID(binary.LittleEndian.Uint64(b[1:]))
	c.ReturnDesc = binary.LittleEndian.Uint64(b[9:])
	mlen := int(binary.LittleEndian.Uint16(b[17:]))
	rest := b[19:]
	if len(rest) < mlen+2 {
		return ErrBadWire
	}
	if c.Method != string(rest[:mlen]) {
		c.Method = string(rest[:mlen])
	}
	rest = rest[mlen:]
	argc := int(binary.LittleEndian.Uint16(rest))
	var err error
	c.Args, err = readValues(rest[2:], argc, c.Args)
	return err
}

// readValues decodes count tagged values into dst's storage. The initial
// capacity comes from count but never exceeds len(b)/2 — the smallest
// value is two bytes — so a hostile count cannot force a large
// allocation. Slots dst held beyond the new length are cleared so stale
// values are not kept reachable.
func readValues(b []byte, count int, dst []any) ([]any, error) {
	out := dst[:0]
	if cap(out) < count {
		out = make([]any, 0, min(count, len(b)/2))
	}
	for i := 0; i < count; i++ {
		v, rest, err := readValue(b)
		if err != nil {
			return out, err
		}
		out = append(out, v)
		b = rest
	}
	if len(dst) > len(out) {
		clear(dst[len(out):])
	}
	return out, nil
}

// MarshalReply serializes a Reply into a buffer sized exactly to the
// wire (one allocation, cap == len).
//
// Wire: 'R', returnDesc u64, errLen u16 + err, count u16, tagged values.
// As with Marshal, overflowing a u16 length field is ErrTooLarge rather
// than silent truncation.
func MarshalReply(r *Reply) ([]byte, error) {
	if len(r.Err) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: error string of %d bytes", ErrTooLarge, len(r.Err))
	}
	if len(r.Results) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d results", ErrTooLarge, len(r.Results))
	}
	n, err := valuesSize(r.Results)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1+8+2+len(r.Err)+2+n)
	b = append(b, 'R')
	b = binary.LittleEndian.AppendUint64(b, r.ReturnDesc)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Err)))
	b = append(b, r.Err...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Results)))
	for _, v := range r.Results {
		b = appendValue(b, v)
	}
	return b, nil
}

// UnmarshalReply parses a serialized Reply into a fresh Reply.
func UnmarshalReply(b []byte) (*Reply, error) {
	r := new(Reply)
	if err := DecodeReply(b, r); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeReply parses a serialized Reply into r, reusing r's storage the
// way DecodeCall reuses a Call's: Results is refilled in place and r.Err
// keeps its string when the bytes are equal. On error r's contents are
// unspecified.
func DecodeReply(b []byte, r *Reply) error {
	if len(b) < 1+8+2 || b[0] != 'R' {
		return ErrBadWire
	}
	r.ReturnDesc = binary.LittleEndian.Uint64(b[1:])
	elen := int(binary.LittleEndian.Uint16(b[9:]))
	rest := b[11:]
	if len(rest) < elen+2 {
		return ErrBadWire
	}
	if r.Err != string(rest[:elen]) {
		r.Err = string(rest[:elen])
	}
	rest = rest[elen:]
	count := int(binary.LittleEndian.Uint16(rest))
	var err error
	r.Results, err = readValues(rest[2:], count, r.Results)
	return err
}

// --- Proxy: transparent invocation (§3.1) ---

// Proxy builds type-checked Calls from an interface definition. "All
// interface methods return a Call object that contains the relevant method
// information including the serialized input parameters."
type Proxy struct {
	iface *odf.Interface
}

// NewProxy wraps an interface definition.
func NewProxy(iface *odf.Interface) *Proxy { return &Proxy{iface: iface} }

// Interface returns the proxied interface definition.
func (p *Proxy) Interface() *odf.Interface { return p.iface }

// Invoke validates args against the method signature and produces a Call.
func (p *Proxy) Invoke(method string, args ...any) (*Call, error) {
	m, ok := p.iface.Method(method)
	if !ok {
		return nil, fmt.Errorf("call: interface %s has no method %s", p.iface.Name, method)
	}
	if len(args) != len(m.Ins) {
		return nil, fmt.Errorf("call: %s.%s takes %d arguments, got %d",
			p.iface.Name, method, len(m.Ins), len(args))
	}
	norm := make([]any, len(args))
	for i, a := range args {
		v, err := coerce(a, m.Ins[i].Type)
		if err != nil {
			return nil, fmt.Errorf("call: %s.%s argument %s: %w",
				p.iface.Name, method, m.Ins[i].Name, err)
		}
		norm[i] = v
	}
	return &Call{Iface: p.iface.GUID, Method: method, Args: norm}, nil
}

// CheckResults validates a reply's result vector against the signature.
func (p *Proxy) CheckResults(method string, results []any) error {
	m, ok := p.iface.Method(method)
	if !ok {
		return fmt.Errorf("call: interface %s has no method %s", p.iface.Name, method)
	}
	if len(results) != len(m.Outs) {
		return fmt.Errorf("call: %s.%s returns %d values, got %d",
			p.iface.Name, method, len(m.Outs), len(results))
	}
	for i, r := range results {
		if _, err := coerce(r, m.Outs[i].Type); err != nil {
			return fmt.Errorf("call: %s.%s result %s: %w", p.iface.Name, method, m.Outs[i].Name, err)
		}
	}
	return nil
}

func coerce(v any, t odf.ParamType) (any, error) {
	switch t {
	case odf.TypeBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case odf.TypeInt64:
		switch x := v.(type) {
		case int:
			return int64(x), nil
		case int64:
			return x, nil
		}
	case odf.TypeUint64:
		if u, ok := v.(uint64); ok {
			return u, nil
		}
	case odf.TypeFloat64:
		if f, ok := v.(float64); ok {
			return f, nil
		}
	case odf.TypeString:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case odf.TypeBytes:
		if b, ok := v.([]byte); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: have %T, want %s", ErrUnsupported, v, t)
}

// --- Dispatcher: device-side invocation ---

// Handler executes one method: it receives the deserialized arguments and
// returns results or an error.
type Handler func(args []any) ([]any, error)

// Dispatcher routes Calls for one interface to registered handlers.
type Dispatcher struct {
	iface    *odf.Interface
	handlers map[string]Handler
}

// NewDispatcher creates a dispatcher for the interface.
func NewDispatcher(iface *odf.Interface) *Dispatcher {
	return &Dispatcher{iface: iface, handlers: make(map[string]Handler)}
}

// Handle registers a method handler; the method must exist on the interface.
func (d *Dispatcher) Handle(method string, h Handler) error {
	if _, ok := d.iface.Method(method); !ok {
		return fmt.Errorf("call: interface %s has no method %s", d.iface.Name, method)
	}
	d.handlers[method] = h
	return nil
}

// Dispatch executes a Call and builds the Reply (never nil).
func (d *Dispatcher) Dispatch(c *Call) *Reply {
	rep := &Reply{ReturnDesc: c.ReturnDesc}
	if c.Iface != d.iface.GUID {
		rep.Err = fmt.Sprintf("interface %v not served here (serving %v)", c.Iface, d.iface.GUID)
		return rep
	}
	h, ok := d.handlers[c.Method]
	if !ok {
		rep.Err = fmt.Sprintf("method %s not implemented", c.Method)
		return rep
	}
	results, err := h(c.Args)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Results = results
	return rep
}
