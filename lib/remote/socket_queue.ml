(* Socket-backed message queue — the paper's second piece of future work
   (§7): "we plan to further explore the utility of the private queue
   design, in particular the usage of sockets as the underlying
   implementation".

   This module is that exploration: a FIFO queue with the same interface
   shape as the runtime's private queues, but whose transport is a Unix
   socket pair carrying length-prefixed marshalled messages — the exact
   mechanics a distributed SCOOP would need, exercised inside one
   process.  The cost question it answers is measured by the
   `transport:*` ablations in the micro-benchmark suite: serialization +
   syscalls versus the in-memory SPSC queue.

   Messages are marshalled with the queue's [flags]: data only by
   default, code too under [Marshal.Closures] (the distributed runtime's
   wire format — same-binary peers ship closures; captured mutable state
   is silently copied).  Both socket ends are non-blocking: a
   would-block write or read parks the fiber on the scheduler's poller
   instead of stalling the domain, so the queue composes with the
   scheduler like every other primitive.

   Writes are coalesced the way a handler drains its private queue: a
   frame is encoded straight into the queue's output buffer, and one
   [write] carries every frame a burst produced.  The flush rule keeps a
   lone message at its old latency — a frame entering an empty buffer
   from a dispatch that has not yet sent on this queue is written at
   once; later frames of the same dispatch are appended, and a flush
   fiber spawned with the first of them writes them all once the sender
   gives up the worker.  Blocking senders call [flush] before they park. *)

exception Closed = Qs_queues.Mailbox.Closed
exception Truncated_frame

let () =
  Printexc.register_printer (function
    | Truncated_frame -> Some "Qs_remote.Socket_queue.Truncated_frame"
    | _ -> None)

(* A peer dying mid-conversation must surface as [Closed]: writes report
   EPIPE only when SIGPIPE is ignored — otherwise the signal kills the
   process before the error is seen. *)
let () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Frame-level transport counters, one registry per queue: what the
   `transport:*` ablations pay per message, now observable directly. *)
type counters = {
  registry : Qs_obs.Counter.registry;
  frames_sent : Qs_obs.Counter.t;
  frames_received : Qs_obs.Counter.t;
  bytes_sent : Qs_obs.Counter.t;
  bytes_received : Qs_obs.Counter.t;
  writes : Qs_obs.Counter.t; (* write syscalls *)
  would_blocks : Qs_obs.Counter.t; (* EAGAIN on either end *)
  truncated_frames : Qs_obs.Counter.t; (* EOF inside a frame *)
}

let make_counters () =
  let registry = Qs_obs.Counter.registry () in
  let c name = Qs_obs.Counter.make registry name in
  (* Bind before constructing the record: record fields evaluate in
     unspecified order, and registration order is the snapshot order. *)
  let frames_sent = c "frames_sent" in
  let frames_received = c "frames_received" in
  let bytes_sent = c "bytes_sent" in
  let bytes_received = c "bytes_received" in
  let writes = c "writes" in
  let would_blocks = c "would_blocks" in
  let truncated_frames = c "truncated_frames" in
  { registry; frames_sent; frames_received; bytes_sent; bytes_received;
    writes; would_blocks; truncated_frames }

type 'a t = {
  read_fd : Unix.file_descr;
  write_fd : Unix.file_descr;
  flags : Marshal.extern_flags list; (* e.g. [Closures] for same-binary peers *)
  write_lock : Qs_sched.Fiber_mutex.t;
      (* guards the output buffer and the write side: frames from
         producers must not interleave, and a flush parked on a full
         socket holds it, so later senders wait (backpressure) *)
  ctrs : counters;
  mutable out : Bytes.t; (* encoded frames not yet written, from 0 *)
  mutable out_len : int;
  mutable out_frames : int; (* frames in [out], counted sent once written *)
  mutable last_stamp : int; (* dispatch that last sent on this queue *)
  mutable flush_pending : bool; (* a flush fiber is on its way *)
  mutable read_buffer : Bytes.t; (* input; unparsed from [read_pos] *)
  mutable read_pos : int;
  mutable read_len : int;
  mutable write_closed : bool;
  mutable eof : bool;
  mutable truncated : bool; (* EOF landed inside a frame (counted once) *)
}

let make ?(flags = []) ~read_fd ~write_fd () =
  {
    read_fd;
    write_fd;
    flags;
    write_lock = Qs_sched.Fiber_mutex.create ();
    ctrs = make_counters ();
    out = Bytes.create 4096;
    out_len = 0;
    out_frames = 0;
    last_stamp = -1;
    flush_pending = false;
    read_buffer = Bytes.create 4096;
    read_pos = 0;
    read_len = 0;
    write_closed = false;
    eof = false;
    truncated = false;
  }

let create ?flags () =
  let read_fd, write_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock read_fd;
  Unix.set_nonblock write_fd;
  make ?flags ~read_fd ~write_fd ()

(* Wrap externally established fds (e.g. one end of an accepted TCP or
   unix-domain connection).  [read_fd] and [write_fd] may be the same
   descriptor: a duplex connection is typically wrapped twice, once as a
   receive-only queue and once as a send-only one.  [set_nonblock] is
   idempotent, so double-wrapping one fd is fine. *)
let of_fds ?flags ~read_fd ~write_fd () =
  (try Unix.set_nonblock read_fd with Unix.Unix_error _ -> ());
  (try Unix.set_nonblock write_fd with Unix.Unix_error _ -> ());
  make ?flags ~read_fd ~write_fd ()

let counters t = Qs_obs.Counter.snapshot t.ctrs.registry

let frame_header_size = 8

(* Buffered bytes at which a sender stops deferring and writes itself:
   caps what one dispatch can queue without meeting the socket's
   backpressure. *)
let flush_threshold = 65536

let grow_out t =
  let bigger = Bytes.create (2 * Bytes.length t.out) in
  Bytes.blit t.out 0 bigger 0 t.out_len;
  t.out <- bigger

(* Append one frame: marshal straight behind its header slot, doubling
   the buffer until the value fits. *)
let rec encode t v =
  let start = t.out_len + frame_header_size in
  if start >= Bytes.length t.out then begin
    grow_out t;
    encode t v
  end
  else
    match Marshal.to_buffer t.out start (Bytes.length t.out - start) v t.flags with
    | n ->
      Bytes.set_int64_le t.out t.out_len (Int64.of_int n);
      t.out_len <- start + n;
      t.out_frames <- t.out_frames + 1
    | exception Failure _ ->
      (* "Marshal.to_buffer: buffer overflow"; other marshalling errors
         are [Invalid_argument] and propagate. *)
      grow_out t;
      encode t v

(* The stream is unusable (peer gone, descriptor closed, or a frame torn
   by a failed write): drop what is buffered and close the queue both
   ways, so later senders get [Closed] and a reader of the same
   connection sees end-of-stream. *)
let broken t =
  t.write_closed <- true;
  t.out_len <- 0;
  t.out_frames <- 0;
  try Unix.shutdown t.write_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Write every buffered byte, one syscall per kernel-accepted chunk.
   Runs under [write_lock]; parks on would-block while holding it. *)
let write_out t =
  let rec go off =
    if off < t.out_len then
      match Unix.single_write t.write_fd t.out off (t.out_len - off) with
      | n ->
        Qs_obs.Counter.incr t.ctrs.writes;
        Qs_obs.Counter.add t.ctrs.bytes_sent n;
        go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* Readiness wait instead of a yield-spin: the fiber parks until
           the kernel drains the send buffer, so a slow peer costs no
           scheduler churn. *)
        Qs_obs.Counter.incr t.ctrs.would_blocks;
        Qs_sched.Sched.await_writable t.write_fd;
        go off
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        broken t;
        raise Closed
  in
  go 0;
  Qs_obs.Counter.add t.ctrs.frames_sent t.out_frames;
  t.out_frames <- 0;
  t.out_len <- 0

(* The spawned half of the flush rule.  It runs as its own fiber, so a
   failure must not escape: a dead peer closes the queue (above) and
   reaches senders as [Closed]. *)
let deferred_flush t =
  Qs_sched.Fiber_mutex.with_lock t.write_lock (fun () ->
    t.flush_pending <- false;
    try write_out t with Closed -> ())

let enqueue t v =
  Qs_sched.Fiber_mutex.with_lock t.write_lock (fun () ->
    if t.write_closed then raise Closed;
    (* Read under the lock: a contended sender resumes in a new dispatch. *)
    let stamp = Qs_sched.Sched.dispatch_stamp () in
    let was_empty = t.out_len = 0 in
    encode t v;
    if
      stamp < 0 (* outside a scheduler: no fiber to defer to *)
      || (was_empty && stamp <> t.last_stamp)
      || t.out_len >= flush_threshold
    then write_out t
    else if not t.flush_pending then begin
      t.flush_pending <- true;
      Qs_sched.Sched.spawn (fun () -> deferred_flush t)
    end;
    t.last_stamp <- stamp)

(* A racy [out_len = 0] is sound here: the caller's own frames were
   appended before, so reading 0 means a flush completed after them. *)
let flush t =
  if t.out_len > 0 then
    Qs_sched.Fiber_mutex.with_lock t.write_lock (fun () ->
      if t.out_len > 0 then write_out t)

(* Make room for the next read: move the unparsed remainder to the front
   (once per read, not once per frame) and grow so that a partially
   received frame fits whole. *)
let prepare_read t =
  let avail = t.read_len - t.read_pos in
  if t.read_pos > 0 then begin
    Bytes.blit t.read_buffer t.read_pos t.read_buffer 0 avail;
    t.read_pos <- 0;
    t.read_len <- avail
  end;
  let needed =
    if avail >= frame_header_size then
      max (avail + 4096)
        (frame_header_size + Int64.to_int (Bytes.get_int64_le t.read_buffer 0))
    else avail + 4096
  in
  if needed > Bytes.length t.read_buffer then begin
    let bigger = Bytes.create (max needed (2 * Bytes.length t.read_buffer)) in
    Bytes.blit t.read_buffer 0 bigger 0 avail;
    t.read_buffer <- bigger
  end

(* Pull more bytes from the socket into the buffer; false at EOF, and on
   would-block unless [wait] parks the fiber until the fd is readable. *)
let read_more t ~wait =
  prepare_read t;
  match
    Unix.read t.read_fd t.read_buffer t.read_len
      (Bytes.length t.read_buffer - t.read_len)
  with
  | 0 ->
    t.eof <- true;
    false
  | n ->
    Qs_obs.Counter.add t.ctrs.bytes_received n;
    t.read_len <- t.read_len + n;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Qs_obs.Counter.incr t.ctrs.would_blocks;
    if wait then begin
      (* Park on readability: the consumer of an idle queue costs
         nothing until a frame (or EOF) arrives. *)
      Qs_sched.Sched.await_readable t.read_fd;
      true
    end
    else false
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
    t.eof <- true;
    false

let take_frame t =
  let avail = t.read_len - t.read_pos in
  if avail < frame_header_size then None
  else begin
    let payload_len = Int64.to_int (Bytes.get_int64_le t.read_buffer t.read_pos) in
    let total = frame_header_size + payload_len in
    if avail < total then None
    else begin
      (* Decode in place: [Marshal.from_bytes] reads [payload_len] bytes
         starting at the offset, so no intermediate copy of the payload
         is needed (the transport ablation's per-message allocation is
         the marshalled value itself, not a second staging buffer). *)
      let v = Marshal.from_bytes t.read_buffer (t.read_pos + frame_header_size) in
      t.read_pos <- t.read_pos + total;
      Qs_obs.Counter.incr t.ctrs.frames_received;
      Some v
    end
  end

(* EOF landed mid-frame: the writer closed (or died) after sending a
   frame header or a partial payload.  Silently returning [None] here
   would make a torn stream indistinguishable from a clean close, so the
   consumer gets an exception instead (counted once per stream). *)
let truncated t =
  if not t.truncated then begin
    t.truncated <- true;
    Qs_obs.Counter.incr t.ctrs.truncated_frames
  end;
  raise Truncated_frame

(* Single consumer: dequeue the next message, [None] once the write side
   is closed and everything has been drained.  A read that returns
   false has set [eof], so the retry settles the stream's end.
   @raise Truncated_frame on EOF inside a frame. *)
let rec dequeue t =
  match take_frame t with
  | Some v -> Some v
  | None ->
    if t.eof then if t.read_len > t.read_pos then truncated t else None
    else begin
      ignore (read_more t ~wait:true : bool);
      dequeue t
    end

(* Batched receive: block (yielding) for the first message, then take
   every message already framed in the buffer or readable without
   blocking — the whole batch costs at most the syscalls the kernel
   forces, not one blocking round trip per message. *)
let drain t buf =
  let cap = Array.length buf in
  if cap = 0 then 0
  else
    match dequeue t with
    | None -> 0
    | Some v ->
      buf.(0) <- v;
      let taken = ref 1 in
      let continue_ = ref true in
      while !continue_ && !taken < cap do
        match take_frame t with
        | Some v ->
          buf.(!taken) <- v;
          incr taken
        | None -> if not (read_more t ~wait:false) then continue_ := false
      done;
      !taken

(* Buffered frames go out before the end-of-stream does. *)
let close_writer t =
  if not t.write_closed then
    Qs_sched.Fiber_mutex.with_lock t.write_lock (fun () ->
      if not t.write_closed then begin
        (try write_out t with Closed -> ());
        t.write_closed <- true;
        try Unix.shutdown t.write_fd Unix.SHUTDOWN_SEND
        with Unix.Unix_error _ -> ()
      end)

let fds t = (t.read_fd, t.write_fd)

let destroy t =
  close_writer t;
  (try Unix.close t.write_fd with Unix.Unix_error _ -> ());
  try Unix.close t.read_fd with Unix.Unix_error _ -> ()

let is_closed t = t.write_closed

(* Consumer-side view: a complete frame is already buffered.  Bytes still
   sitting in the kernel are not counted, so [false] is authoritative but
   [true] is only "nothing parsed yet". *)
let is_empty t =
  let avail = t.read_len - t.read_pos in
  not
    (avail >= frame_header_size
    && avail
       >= frame_header_size
          + Int64.to_int (Bytes.get_int64_le t.read_buffer t.read_pos))

module As_mailbox = struct
  type nonrec 'a t = 'a t

  let create () = create ()
  let enqueue = enqueue
  let dequeue = dequeue
  let drain = drain
  let close = close_writer
  let is_closed = is_closed
  let is_empty = is_empty
end
