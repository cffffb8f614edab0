package rpc

import "sync"

// Request pooling. Request messages are never retained by the stack: the
// transports read them, the endpoints dispatch on them, and the replay
// caches record only responses — so a client helper can return its request
// to a pool the moment Call returns. Responses are NOT poolable: every
// executed (xid → response) pair lives in the endpoint's replay cache, and
// reusing a cached response struct would corrupt replayed retries. (The
// empty ack responses are zero-sized and cost nothing to "allocate".)
//
// The pools matter because data-path clients build one request per striped
// piece: a single benchmark run issues millions of ObjWriteReq/ObjReadReq
// values that all died within one call.
type reqPool[T any] struct{ p sync.Pool }

// get returns a zeroed-or-recycled request.
func (rp *reqPool[T]) get() *T {
	if v := rp.p.Get(); v != nil {
		return v.(*T)
	}
	return new(T)
}

// put recycles a request the stack has finished with.
func (rp *reqPool[T]) put(x *T) {
	rp.p.Put(x)
}

// Pools for the per-block and per-piece hot requests. Cold control requests
// (mkdir, open, layout) are not worth pooling.
var (
	objCreateReqPool   reqPool[ObjCreateReq]
	objWriteReqPool    reqPool[ObjWriteReq]
	objReadReqPool     reqPool[ObjReadReq]
	objFsyncReqPool    reqPool[ObjFsyncReq]
	objCloseReqPool    reqPool[ObjCloseReq]
	extentChurnReqPool reqPool[ExtentChurnReq]
)
