(** Socket-backed FIFO message queue: the paper's §7 exploration of
    "sockets as the underlying implementation" of private queues, inside
    one process.  Messages travel as length-prefixed marshalled frames
    over non-blocking Unix sockets; a would-block read or write parks
    the fiber on the scheduler's poller until the descriptor is ready.

    Messages are marshalled with the queue's [flags]: data only by
    default, closures too under [Marshal.Closures] (same-binary peers).
    Multiple producer fibers may {!enqueue} (frames never interleave);
    exactly one consumer fiber may {!dequeue}.

    Writes are coalesced per burst.  A frame that enters an empty output
    buffer from a dispatch (see [Qs_sched.Sched.dispatch_stamp]) that
    has not yet sent on this queue is written at once, so a lone message
    pays no added latency.  Later frames of the same dispatch are
    appended, and one write carries them all once the sender gives up
    the worker — or {!flush}es, or has buffered 64 KiB.  A write parked
    on a full socket holds the queue, so later senders wait behind it:
    backpressure reaches the senders, not an ever-growing buffer. *)

exception Closed
(** Same exception as [Qs_queues.Mailbox.Closed] (rebound). *)

exception Truncated_frame
(** End-of-stream arrived inside a frame: the writer closed after a
    partial header or payload.  Raised by {!dequeue}/{!drain} instead of
    returning [None] — a torn stream is a transport failure, not a clean
    close — and counted under [truncated_frames]. *)

type 'a t

val create : ?flags:Marshal.extern_flags list -> unit -> 'a t
(** Fresh socket-pair transport.  [flags] are passed to
    [Marshal.to_buffer] on every send — [[Marshal.Closures]] lets
    same-binary peers ship code (the distributed runtime's wire format);
    the default ships data only. *)

val of_fds :
  ?flags:Marshal.extern_flags list ->
  read_fd:Unix.file_descr ->
  write_fd:Unix.file_descr ->
  unit ->
  'a t
(** Wrap externally established descriptors (an accepted TCP or
    unix-domain connection).  Both are switched to non-blocking.
    [read_fd] and [write_fd] may be the same descriptor — a duplex
    connection is typically wrapped twice, once used only for
    {!dequeue}/{!drain} and once only for {!enqueue}.  {!destroy} closes
    both (closing a shared fd twice is harmless). *)

val enqueue : 'a t -> 'a -> unit
(** Send one message: written at once, or buffered until the sending
    dispatch ends (see the flush rule above).  @raise Closed after
    {!close_writer}, or once a write found the peer gone ([EPIPE],
    [ECONNRESET], [EBADF]): the queue is then closed both ways and a
    reader of the same connection sees end-of-stream. *)

val flush : 'a t -> unit
(** Write every buffered frame now, parking while the socket is full.
    Call it before blocking on a reply to a buffered message, or before
    writing raw bytes to the descriptor ({!fds}).
    @raise Closed if the write finds the peer gone. *)

val dequeue : 'a t -> 'a option
(** Receive the next message, parking while none is available; [None]
    once the writer has closed and the stream is drained.
    @raise Truncated_frame if end-of-stream arrives inside a frame. *)

val drain : 'a t -> 'a array -> int
(** Batched receive: block (parking) for the first message, then take
    every message already framed or readable without blocking, up to
    [Array.length buf]; returns the count, [0] once the writer has
    closed and the stream is drained. *)

val close_writer : 'a t -> unit
(** Write the buffered frames, then signal end-of-stream to the
    consumer. *)

val is_closed : 'a t -> bool

val is_empty : 'a t -> bool
(** [false] means a complete frame is buffered; [true] only means
    nothing is parsed yet (bytes may still sit in the kernel). *)

val counters : 'a t -> Qs_obs.Counter.snapshot
(** Frame-level transport counters: [frames_sent] (counted once
    written), [frames_received], [bytes_sent], [bytes_received]
    (payload + 8-byte headers, as seen by the syscalls), [writes] (write
    syscalls; [frames_sent / writes] is the coalescing factor),
    [would_blocks] (EAGAIN episodes on either end) and
    [truncated_frames] (streams ending inside a frame).  Read with
    [Qs_obs.Counter.value]. *)

val destroy : 'a t -> unit
(** Close both file descriptors. *)

val fds : 'a t -> Unix.file_descr * Unix.file_descr
(** [(read_fd, write_fd)] of the underlying socket pair.  For tests and
    fault injection (e.g. writing a deliberately torn frame, after a
    {!flush} so it lands behind the frames already enqueued); normal
    traffic must go through {!enqueue}. *)

module As_mailbox : Qs_queues.Mailbox.S with type 'a t = 'a t
(** [Qs_queues.Mailbox.S] view of the transport ([close] is
    {!close_writer}).  Blocking flavour: [dequeue]/[drain] park until a
    message or end-of-stream arrives. *)
