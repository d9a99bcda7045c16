package main

import (
	"context"
	"fmt"
	"time"

	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// Layer probes: tight loops over one public call, sized from what the
// workload's run just sent, reported as mean nanoseconds per call.

// codecReps is how many times each codec probe encodes or decodes.
const codecReps = 100000

// timeLoop runs fn reps times under a probe span and returns the mean
// nanoseconds per call.
func timeLoop(b *bench, name string, reps int, fn func() error) (float64, error) {
	sp := b.tr.begin(name, 0, -1)
	defer b.tr.end(sp)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps), nil
}

// probeBinaryCodec times binary encoding and decoding of one tree
// aggregation message in each direction.
func probeBinaryCodec(b *bench, up protocol.AggUp, down protocol.AggDown) error {
	upBytes, err := protocol.EncodeAggUp(protocol.CodecBinary, up)
	if err != nil {
		return err
	}
	downBytes, err := protocol.EncodeAggDown(protocol.CodecBinary, down)
	if err != nil {
		return err
	}
	enc, err := timeLoop(b, "probe.protocol.binary_encode", codecReps, func() error {
		if _, err := protocol.EncodeAggUp(protocol.CodecBinary, up); err != nil {
			return err
		}
		_, err := protocol.EncodeAggDown(protocol.CodecBinary, down)
		return err
	})
	if err != nil {
		return err
	}
	dec, err := timeLoop(b, "probe.protocol.binary_decode", codecReps, func() error {
		if _, err := protocol.Decode(upBytes); err != nil {
			return err
		}
		_, err := protocol.Decode(downBytes)
		return err
	})
	if err != nil {
		return err
	}
	// Each loop iteration handles one message of each direction.
	b.setLayer("protocol.binary.encode_ns", enc/2, 2*codecReps)
	b.setLayer("protocol.binary.decode_ns", dec/2, 2*codecReps)
	b.setLayer("protocol.binary.msg_bytes", float64(len(upBytes)+len(downBytes))/2, 2)
	return nil
}

// probeJSONCodec times JSON encoding of one access request and decoding
// of one access reply, the serving path's per-request codec work.
func probeJSONCodec(b *bench, req protocol.Access, reply protocol.AccessReply) error {
	replyBytes, err := protocol.EncodeAccessReply(reply)
	if err != nil {
		return err
	}
	enc, err := timeLoop(b, "probe.protocol.json_encode_access", codecReps, func() error {
		_, err := protocol.EncodeAccess(req)
		return err
	})
	if err != nil {
		return err
	}
	dec, err := timeLoop(b, "probe.protocol.json_decode_reply", codecReps, func() error {
		_, err := protocol.Decode(replyBytes)
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("protocol.json.encode_access_ns", enc, codecReps)
	b.setLayer("protocol.json.decode_reply_ns", dec, codecReps)
	return nil
}

// transportReps is how many messages each transport probe moves.
const transportReps = 50000

// probeTransport times one send→receive of a payload of the run's mean
// message size across a memory-network endpoint pair, plain and, when
// msgsPerFrame > 0, behind a Coalescer on each side that flushes one
// frame per msgsPerFrame messages, as the run did. A run that sends
// without a Coalescer passes 0 and leaves the coalesced probe out.
func probeTransport(ctx context.Context, b *bench, payloadBytes, msgsPerFrame int) error {
	net, err := transport.NewMemoryNetwork(2)
	if err != nil {
		return err
	}
	defer net.Close()
	a, err := net.Endpoint(0)
	if err != nil {
		return err
	}
	z, err := net.Endpoint(1)
	if err != nil {
		return err
	}
	payload := make([]byte, max(payloadBytes, 1))
	plain, err := timeLoop(b, "probe.transport.memory", transportReps, func() error {
		if err := a.Send(ctx, 1, payload); err != nil {
			return err
		}
		_, err := z.Recv(ctx)
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("transport.memory.sendrecv_ns", plain, transportReps)
	b.notes["transport.payload_bytes"] = len(payload)
	if msgsPerFrame < 1 {
		return nil
	}
	ca, cz := transport.NewCoalescer(a), transport.NewCoalescer(z)
	frames := max(1, transportReps/msgsPerFrame)
	batch, err := timeLoop(b, "probe.transport.coalesce", frames, func() error {
		for k := 0; k < msgsPerFrame; k++ {
			if err := ca.Send(ctx, 1, payload); err != nil {
				return err
			}
		}
		if err := ca.Flush(ctx); err != nil {
			return err
		}
		for k := 0; k < msgsPerFrame; k++ {
			if _, err := cz.Recv(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setLayer("transport.coalesce.sendrecv_ns", batch/float64(msgsPerFrame), frames*msgsPerFrame)
	b.notes["transport.coalesce.msgs_per_frame"] = msgsPerFrame
	return nil
}
