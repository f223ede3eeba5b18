(* The query daemon.  See server.mli for the architecture overview.

   Thread/domain layout (event-driven core):
   - [config.accept_shards] event-loop systhreads, each running an
     {!Xutil.Evloop} (epoll where available).  Every loop owns a set of
     connections outright: it accepts them, decodes their frames,
     admits their queries and writes their responses.  Nothing about a
     connection is ever touched from another loop;
   - [config.workers] worker domains execute queries (and mutations,
     reloads, health probes) pulled from the shared {!Xutil.Domain_pool}.
     Workers never touch sockets: they fill the request's response slot
     and post a completion to the owning loop, which {!Xutil.Evloop.wakeup}
     nudges out of its wait;
   - one coordinator systhread watches [stop_requested] and runs the
     shutdown sequence (join loops, close listeners, unlink Unix socket
     files, drain the pool).

   Per-connection state machine (reading -> executing -> writing, all
   three phases live at once under pipelining):
   - readable: feed whatever arrived into the incremental
     {!Protocol.Decoder}, then drain complete frames.  Each frame gets a
     response {e slot} appended to the connection's FIFO; cheap ops
     (ping, stats, unsupported) complete inline, queries are admitted
     now (so [Overloaded] reflects true concurrency) and batched to the
     pool, mutations ship to the pool individually;
   - completion: a slot's response arrives (inline or posted by a
     worker).  Responses are flushed strictly in slot order — a later
     request finishing first waits for the head of the queue — which is
     what makes pipelining transparent to clients;
   - writable: encoded responses accumulate in an output queue of
     iovec-style slices and leave in batched writev(2) calls; short
     writes arm write-readiness and resume where the kernel stopped.
     The output queue is bounded by backpressure: once its unsent
     bytes cross a high-water mark the connection stops reading, so a
     peer that pipelines queries but never drains its socket caps the
     memory it can pin rather than growing it without bound.

   Shared state and its discipline:
   - the served index is an [Atomic.t] of an immutable record: readers
     [Atomic.get] once per request and use that snapshot throughout, so a
     concurrent [Reload] can never tear a request across two indexes;
   - the plan cache, metrics registry and admission counter each carry
     their own mutex;
   - a slot's response cell is an [Atomic.t]: the worker fills it, the
     loop reads it — the completion post (mutex + wakeup) publishes it;
   - [stop_requested] is an [Atomic.t bool] so a signal handler can set
     it without taking locks. *)

module Pool = Xutil.Domain_pool
module Ev = Xutil.Evloop
module P = Protocol

type addr = Tcp of string * int | Unix_sock of string

let addr_to_string = function
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p
  | Unix_sock p -> "unix:" ^ p

let addr_of_string s =
  let unix_prefix = "unix:" in
  if String.length s > String.length unix_prefix
     && String.sub s 0 (String.length unix_prefix) = unix_prefix
  then
    Ok (Unix_sock (String.sub s (String.length unix_prefix)
                     (String.length s - String.length unix_prefix)))
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "cannot parse address %S (want unix:PATH or HOST:PORT)" s)
    | Some i ->
      let host = if i = 0 then "127.0.0.1" else String.sub s 0 i in
      (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
       | Some port when port > 0 && port < 65536 -> Ok (Tcp (host, port))
       | _ -> Error (Printf.sprintf "bad port in address %S" s))

type source =
  | Static of Xseq.t
  | Snapshot of string
  | Dynamic of Xseq.Dynamic.dyn
  | Live of Xlog.t
  | Sharded of Xshard.t

(* Replication is wired through a hook record rather than a direct
   dependency on the engine: the server owns the wire mechanics
   (subscription pumping, ack bookkeeping, role gating) while role,
   epoch and promotion live with whoever built the hooks ([Xrepl]) —
   xserver never links against xrepl. *)
type repl_hooks = {
  repl_log : Xlog.t;  (** the replicated store — must be the served source *)
  repl_role : unit -> [ `Primary | `Follower ];
  repl_epoch : unit -> int;
  repl_leader_hint : unit -> string;  (** "" when unknown *)
  repl_promote : unit -> (int, string) result;
  repl_observe_epoch : int -> unit;
      (** a subscriber announced this epoch; a primary seeing a higher
          one was deposed and must step down (fencing) *)
  repl_lag : unit -> int * int;
      (** (records, bytes) this node trails its primary; (0, 0) on a
          primary *)
  repl_sync_replicas : int;
      (** mutations are acknowledged only once this many subscribers
          durably hold them; 0 = asynchronous *)
  repl_ack_timeout_ms : int;
      (** parked mutations answer [Timeout] after this long without
          enough acks (the write {e is} applied locally — the client
          must treat it as indeterminate, exactly like any timeout) *)
}

type config = {
  workers : int;
  max_pending : int;
  plan_cache_capacity : int;
  default_timeout_ms : int;
  drain_timeout_s : float;
  debug_delay_ms : int;
  accept_shards : int;
  max_pipeline : int;
  snapshot_mode : Xstorage.Store.mode;
  snapshot_pool_pages : int;
  repl : repl_hooks option;
  scrub : Xlog.Scrub.scrubber option;
      (** an anti-entropy scrubber whose counters belong in Stats JSON;
          the server only reports it — start/stop stay with the owner *)
}

let default_config =
  {
    workers = 2;
    max_pending = 64;
    plan_cache_capacity = 256;
    default_timeout_ms = 0;
    drain_timeout_s = 5.0;
    debug_delay_ms = 0;
    accept_shards = 1;
    max_pipeline = 256;
    snapshot_mode = Xstorage.Store.Resident;
    snapshot_pool_pages = 256;
    repl = None;
    scrub = None;
  }

(* What a request executes against: one [Atomic.get] pins the backend
   for the whole request.  A frozen backend's generation is fixed at
   swap time; a live store's structure generation moves underneath us
   (seals, compaction installs), so it is read per request. *)
type backend = B_index of Xseq.t | B_live of Xlog.t | B_shard of Xshard.t

type serving = { backend : backend; gen : int }

let serving_gen sv =
  match sv.backend with
  | B_index _ -> sv.gen
  | B_live log -> Xlog.generation log
  | B_shard sh -> Xshard.generation sh

(* Cached plans carry which compiler produced them; generations are
   allocated from one process-wide sequence ({!Xseq.next_generation}),
   so a key collision across backend kinds cannot happen — the variant
   check is defence in depth. *)
type plan =
  | Plan_index of Xseq.prepared
  | Plan_live of Xlog.prepared
  | Plan_shard of Xshard.prepared

(* One pipelined request on one connection.  [sl_op = ""] marks a
   framing-error slot (an error frame owed for input that never decoded
   into a request; it counts as an error, not as a request). *)
type slot = {
  sl_op : string;
  sl_t0 : float;
  sl_resp : P.response option Atomic.t;
}

type conn = {
  c_fd : Unix.file_descr;
  c_dec : P.Decoder.t;
  c_slots : slot Queue.t;  (** responses owed, in request order *)
  c_outq : string Queue.t;  (** encoded slices not yet accepted by the kernel *)
  mutable c_out_off : int;  (** bytes of [Queue.peek c_outq] already written *)
  mutable c_outq_bytes : int;  (** unsent bytes across [c_outq] (backpressure) *)
  mutable c_paused : bool;
      (** reading paused: pipeline cap or output high-water mark reached
          (or draining) *)
  mutable c_want_read : bool;  (** interest bits currently registered *)
  mutable c_want_write : bool;
  mutable c_closed : bool;
  mutable c_close_after_flush : bool;
  mutable c_sub : sub option;
      (** [Some _] once the peer subscribed to the WAL stream: the
          connection has left the request/response model — the server
          pushes batches and heartbeats, the peer sends only acks *)
  mutable c_xfer : xfer option;
      (** [Some _] while a snapshot transfer is streaming out: chunks
          refill the output queue as the kernel drains it, under the
          same high-water mark as every other push *)
  c_loop : loop;
}

(* One outbound snapshot transfer.  Owned by the connection's loop
   thread; the transfer {e list} (WAL retention pinning) is shared and
   guarded by [repl.rp_m]. *)
and xfer = {
  xf_dir : string;
  xf_manifest : Xlog.Transfer.manifest;
  mutable xf_offset : int;  (** next stream byte to ship *)
}

(* One live WAL subscription.  Owned by the connection's loop thread
   like the rest of the connection state; the subscription {e list}
   (membership, retention, ack floor) is shared and guarded by
   [repl.rp_m]. *)
and sub = {
  s_conn : conn;
  mutable s_cursor : Xlog.Wal.position;  (** next byte to ship *)
  mutable s_acked : Xlog.Wal.position;
      (** highest position the subscriber durably applied *)
  mutable s_last_send : float;  (** heartbeat pacing *)
}

and loop = {
  l_id : int;
  l_ev : Ev.t;
  l_listeners : Unix.file_descr list;
  l_conns : (Unix.file_descr, conn) Hashtbl.t;
  l_m : Mutex.t;  (** guards [l_compl] *)
  mutable l_compl : conn list;  (** worker-posted completions, reversed *)
  mutable l_exec : exec_item list;  (** queries admitted this tick, reversed *)
  mutable l_draining : bool;
  l_scratch : Bytes.t;
}

(* A query admitted at decode time, waiting to be micro-batched to the
   pool at the end of the loop tick.  Batching matters on the write
   path: a pipelined burst read in one recv becomes one pool handoff,
   not one mutex/condvar round trip per frame. *)
and exec_item = {
  x_conn : conn;
  x_slot : slot;
  x_patterns : Xquery.Pattern.t array;
  x_batch : bool;
  x_deadline : float option;
}

(* A mutation response parked until [repl_sync_replicas] subscribers
   acknowledge the log position it produced (semi-synchronous
   replication): the client's ack then implies the record survives the
   primary's death. *)
type waiter = {
  w_conn : conn;
  w_slot : slot;
  w_resp : P.response;
  w_pos : Xlog.Wal.position;  (** durable position the record is under *)
  w_deadline : float;
}

type repl = {
  rp_hooks : repl_hooks;
  rp_m : Mutex.t;  (** guards [rp_subs], [rp_waiters] and [rp_xfers] *)
  mutable rp_subs : sub list;
  mutable rp_waiters : waiter list;
  mutable rp_xfers : xfer list;
      (** live snapshot transfers: their manifests pin the WAL file the
          stream still has to read through the retention hook *)
}

type t = {
  config : config;
  mutable source : source; (* guarded by [reload_m] *)
  serving : serving Atomic.t;
  cache : plan Plan_cache.t;
  metrics : Metrics.t;
  pool : Pool.t;
  repl : repl option;
  (* admission *)
  adm_m : Mutex.t;
  mutable in_flight : int;
  (* lifecycle *)
  stop_requested : bool Atomic.t;
  state_m : Mutex.t;
  state_cv : Condition.t;
  mutable started : bool;
  mutable stopped : bool;
  mutable listeners : (Unix.file_descr * addr) list;
  mutable loops : loop array;
  mutable coordinator : Thread.t option;
  reload_m : Mutex.t;
  started_at : float;
}

let serving_of_source config = function
  | Static index -> { backend = B_index index; gen = Xseq.generation index }
  | Snapshot path ->
    let index =
      Xseq.load ~mode:config.snapshot_mode
        ~pool_pages:config.snapshot_pool_pages path
    in
    { backend = B_index index; gen = Xseq.generation index }
  | Dynamic dyn ->
    let index = Xseq.Dynamic.snapshot dyn in
    { backend = B_index index; gen = Xseq.generation index }
  | Live log -> { backend = B_live log; gen = Xlog.generation log }
  | Sharded sh -> { backend = B_shard sh; gen = Xshard.generation sh }

let create ?(config = default_config) source =
  if config.workers < 1 then invalid_arg "Server.create: workers < 1";
  if config.max_pending < 1 then invalid_arg "Server.create: max_pending < 1";
  if config.accept_shards < 1 then invalid_arg "Server.create: accept_shards < 1";
  if config.max_pipeline < 1 then invalid_arg "Server.create: max_pipeline < 1";
  let repl =
    match config.repl with
    | None -> None
    | Some hooks ->
      (* The replicated log must be what the server serves: the
         staleness guard compares the served id watermark, and the
         pump ships the served store's WAL. *)
      (match source with
       | Live log when log == hooks.repl_log -> ()
       | _ ->
         invalid_arg
           "Server.create: replication requires serving the replicated \
            store (Live log)");
      let r =
        { rp_hooks = hooks; rp_m = Mutex.create (); rp_subs = [];
          rp_waiters = []; rp_xfers = [] }
      in
      (* Live subscriptions pin the WAL files they still have to read:
         pruning past a cursor is survivable (Position_pruned + re-seed)
         but never free, so checkpoints keep them.  Snapshot transfers
         pin the file their manifest's WAL prefix lives in — pruning it
         mid-stream would only force the fetcher to restart. *)
      Xlog.set_wal_retention hooks.repl_log (fun () ->
          Mutex.lock r.rp_m;
          let min_opt acc f =
            match acc with None -> Some f | Some g -> Some (min g f)
          in
          let keep =
            List.fold_left
              (fun acc s -> min_opt acc s.s_cursor.Xlog.Wal.file)
              None r.rp_subs
          in
          let keep =
            List.fold_left
              (fun acc x ->
                min_opt acc x.xf_manifest.Xlog.Transfer.x_wal_index)
              keep r.rp_xfers
          in
          Mutex.unlock r.rp_m;
          keep);
      Some r
  in
  {
    config;
    source;
    serving = Atomic.make (serving_of_source config source);
    cache = Plan_cache.create ~capacity:config.plan_cache_capacity;
    metrics = Metrics.create ();
    pool = Pool.create ~domains:config.workers ();
    repl;
    adm_m = Mutex.create ();
    in_flight = 0;
    stop_requested = Atomic.make false;
    state_m = Mutex.create ();
    state_cv = Condition.create ();
    started = false;
    stopped = false;
    listeners = [];
    loops = [||];
    coordinator = None;
    reload_m = Mutex.create ();
    started_at = Unix.gettimeofday ();
  }

let metrics t = t.metrics
let plan_cache t = t.cache
let generation t = serving_gen (Atomic.get t.serving)

let pending t =
  Mutex.lock t.adm_m;
  let n = t.in_flight in
  Mutex.unlock t.adm_m;
  n

(* --- admission ------------------------------------------------------------- *)

(* Admission happens on the loop thread at decode time — not when a
   worker dequeues the job — so [max_pending] bounds true concurrency:
   queued-but-unexecuted requests hold their permit and later arrivals
   answer [Overloaded] immediately. *)
let try_admit t =
  Mutex.lock t.adm_m;
  let ok = t.in_flight < t.config.max_pending in
  if ok then t.in_flight <- t.in_flight + 1;
  Mutex.unlock t.adm_m;
  ok

(* --- query execution ------------------------------------------------------- *)

(* Compile-or-reuse: normalized pattern text keys the LRU; the entry's
   generation stamp guarantees the plan belongs to the backend snapshot.
   Queries whose expansion explodes ([Too_many]) bypass the cache and
   take the exact-scan fallback.  On a live or sharded store the
   structure can seal or compact between the cache probe and the run:
   the stamp check raises and the query falls back to the uncached
   (always current) path rather than answering from a stale plan.  Only
   that is retried — a sharded store's {!Xseq.Stale_plan}, or a live
   store's [Invalid_argument] while its generation moved since the
   probe — so any other exception from the run propagates. *)
let answer_pattern t sv stats pattern =
  let key = Xquery.Pattern.to_string pattern in
  match sv.backend with
  | B_index index ->
    (match Plan_cache.find t.cache ~generation:sv.gen key with
     | Some (Plan_index plans) -> Xseq.run_prepared ~stats index plans
     | Some (Plan_live _) | Some (Plan_shard _) | None ->
       (match Xseq.prepare index pattern with
        | plans ->
          Plan_cache.add t.cache ~generation:sv.gen key (Plan_index plans);
          Xseq.run_prepared ~stats index plans
        | exception Xquery.Instantiate.Too_many _ ->
          Xseq.query ~stats index pattern))
  | B_live log ->
    let gen = Xlog.generation log in
    let run plan =
      try Xlog.run_prepared ~stats log plan
      with Invalid_argument _ when Xlog.generation log <> gen ->
        Xlog.query ~stats log pattern
    in
    (match Plan_cache.find t.cache ~generation:gen key with
     | Some (Plan_live plan) -> run plan
     | Some (Plan_index _) | Some (Plan_shard _) | None ->
       (match Xlog.prepare log pattern with
        | plan ->
          Plan_cache.add t.cache ~generation:gen key (Plan_live plan);
          run plan
        | exception Xquery.Instantiate.Too_many _ ->
          Xlog.query ~stats log pattern))
  | B_shard sh ->
    let gen = Xshard.generation sh in
    let run plan =
      try Xshard.run_prepared ~stats sh plan
      with Xseq.Stale_plan -> Xshard.query ~stats sh pattern
    in
    (match Plan_cache.find t.cache ~generation:gen key with
     | Some (Plan_shard plan) -> run plan
     | Some (Plan_index _) | Some (Plan_live _) | None ->
       (match Xshard.prepare sh pattern with
        | plan ->
          Plan_cache.add t.cache ~generation:gen key (Plan_shard plan);
          run plan
        | exception Xquery.Instantiate.Too_many _ ->
          Xshard.query ~stats sh pattern))

let parse_xpath xpath =
  match Xquery.Xpath_parser.parse xpath with
  | p -> Ok p
  | exception Xquery.Xpath_parser.Syntax_error { pos; msg } ->
    Error (Printf.sprintf "%s at position %d in %S" msg pos xpath)

let err code fmt =
  Printf.ksprintf (fun message -> P.Error { code; message }) fmt

(* The deadline is fixed when the frame is admitted; workers re-check it
   when they dequeue the job, so a request that starved in the queue
   answers [Timeout] instead of executing late. *)
let deadline_of t timeout_ms =
  let ms = if timeout_ms > 0 then timeout_ms else t.config.default_timeout_ms in
  if ms > 0 then Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.))
  else None

let expired = function
  | Some d -> Unix.gettimeofday () > d
  | None -> false

(* --- reload ---------------------------------------------------------------- *)

let reload ?path t =
  Mutex.lock t.reload_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.reload_m)
    (fun () ->
      let source =
        match (path, t.source) with
        | Some p, _ -> Snapshot p
        | None, src -> src
      in
      (* Build the replacement entirely off to the side; only the final
         pointer swap is visible to queries.  [Static] with no path keeps
         serving the resident index (nothing to rebuild from); [Live]
         with no path flushes the memtable and compacts the store in
         place — concurrent queries keep answering throughout, against
         whichever view is installed when they pin it. *)
      let sv =
        match source with
        | Static _ when path = None -> Atomic.get t.serving
        | Live log when path = None ->
          Xlog.flush log;
          ignore (Xlog.compact log : bool);
          serving_of_source t.config source
        | Sharded sh when path = None ->
          Xshard.flush sh;
          ignore (Xshard.compact sh : bool);
          serving_of_source t.config source
        | s -> serving_of_source t.config s
      in
      t.source <- source;
      Atomic.set t.serving sv;
      serving_gen sv)

(* --- stats ----------------------------------------------------------------- *)

let stats_json t =
  let sv = Atomic.get t.serving in
  let hits = Plan_cache.hits t.cache and misses = Plan_cache.misses t.cache in
  let looked = hits + misses in
  let page_reads, page_hits, pool_pages =
    match sv.backend with
    | B_index index ->
      (match Xseq.backing_store index with
       | Some s ->
         ( Xstorage.Store.page_reads s,
           Xstorage.Store.page_hits s,
           Xstorage.Store.pool_capacity s )
       | None -> (0, 0, 0))
    | B_live _ | B_shard _ -> (0, 0, 0)
  in
  let live_extra =
    match sv.backend with
    | B_index _ -> []
    | B_shard sh ->
      (* Per-shard state plus the aggregate, so an operator watching
         Stats sees exactly which shard is degraded or down. *)
      let infos = Xshard.shard_infos sh in
      let shard_json (i : Xshard.shard_info) =
        Printf.sprintf
          "{\"shard\": %d, \"doc_count\": %d, \"pending\": %d, \
           \"segments\": %d, \"tombstones\": %d, \"next_local_id\": %d, \
           \"wal_offset\": %d, \"degraded\": %b, \"degraded_reason\": %S, \
           \"down\": %b, \"down_reason\": %S}"
          i.Xshard.shard i.Xshard.docs i.Xshard.pending i.Xshard.segments
          i.Xshard.tombstones i.Xshard.next_local_id i.Xshard.wal_offset
          (i.Xshard.degraded <> None)
          (Option.value i.Xshard.degraded ~default:"")
          (i.Xshard.down <> None)
          (Option.value i.Xshard.down ~default:"")
      in
      let degraded = Xshard.degraded_shards sh in
      [
        ( "sharded",
          Printf.sprintf
            "{\"shards\": %d, \"doc_count\": %d, \"degraded_shards\": %d, \
             \"down_shards\": %d, \"per_shard\": [%s]}"
            (Xshard.shard_count sh) (Xshard.doc_count sh)
            (List.length degraded)
            (List.length (Xshard.down_shards sh))
            (String.concat ", "
               (Array.to_list (Array.map shard_json infos))) );
      ]
    | B_live log ->
      let degraded, reason =
        match Xlog.degraded_reason log with
        | Some r -> (true, r)
        | None -> (false, "")
      in
      [
        ( "live",
          Printf.sprintf
            "{\"doc_count\": %d, \"pending\": %d, \"segments\": %d, \
             \"tombstones\": %d, \"next_id\": %d, \"wal_offset\": %d, \
             \"degraded\": %b, \"degraded_reason\": %S}"
            (Xlog.doc_count log) (Xlog.pending log) (Xlog.segments log)
            (Xlog.tombstones log) (Xlog.next_id log) (Xlog.wal_offset log)
            degraded reason );
      ]
  in
  let repl_extra =
    match t.repl with
    | None -> []
    | Some r ->
      let h = r.rp_hooks in
      let lag_records, lag_bytes = h.repl_lag () in
      Mutex.lock r.rp_m;
      let nsubs = List.length r.rp_subs
      and nwait = List.length r.rp_waiters in
      Mutex.unlock r.rp_m;
      let d = Xlog.wal_durable_position h.repl_log in
      [
        ( "repl",
          Printf.sprintf
            "{\"role\": %S, \"epoch\": %d, \"durable_file\": %d, \
             \"durable_off\": %d, \"next_id\": %d, \"leader_hint\": %S, \
             \"subscribers\": %d, \"parked_mutations\": %d, \
             \"repl_lag_records\": %d, \"repl_lag_bytes\": %d}"
            (match h.repl_role () with
             | `Primary -> "primary"
             | `Follower -> "follower")
            (h.repl_epoch ()) d.Xlog.Wal.file d.Xlog.Wal.off
            (Xlog.next_id h.repl_log) (h.repl_leader_hint ()) nsubs nwait
            lag_records lag_bytes );
      ]
  in
  let scrub_extra =
    match t.config.scrub with
    | None -> []
    | Some sc ->
      let s = Xlog.Scrub.stats sc in
      [
        ( "scrub",
          Printf.sprintf
            "{\"passes\": %d, \"files\": %d, \"bytes\": %d, \
             \"errors_found\": %d, \"repairs\": %d, \"quarantined\": %b, \
             \"last_error\": %S}"
            s.Xlog.Scrub.passes s.Xlog.Scrub.files s.Xlog.Scrub.bytes
            s.Xlog.Scrub.errors_found s.Xlog.Scrub.repairs
            s.Xlog.Scrub.quarantined s.Xlog.Scrub.last_error );
      ]
  in
  let event_backend =
    if Array.length t.loops > 0 then Ev.backend_name t.loops.(0).l_ev
    else "none"
  in
  Metrics.to_json
    ~extra:
      ([
        ("generation", string_of_int (serving_gen sv));
        ("uptime_s",
         Printf.sprintf "%.1f" (Unix.gettimeofday () -. t.started_at));
        ("pending", string_of_int (pending t));
        ("max_pending", string_of_int t.config.max_pending);
        ("workers", string_of_int t.config.workers);
        ("accept_shards", string_of_int (max 1 t.config.accept_shards));
        ("event_backend", Printf.sprintf "%S" event_backend);
        ( "plan_cache",
          Printf.sprintf
            "{\"capacity\": %d, \"entries\": %d, \"hits\": %d, \"misses\": \
             %d, \"hit_rate\": %.4f}"
            (Plan_cache.capacity t.cache)
            (Plan_cache.length t.cache)
            hits misses
            (if looked = 0 then 0. else float_of_int hits /. float_of_int looked) );
        ( "store",
          Printf.sprintf
            "{\"page_reads\": %d, \"page_hits\": %d, \"pool_pages\": %d}"
            page_reads page_hits pool_pages );
      ]
      @ live_extra @ repl_extra @ scrub_extra)
    t.metrics

(* --- non-query dispatch ---------------------------------------------------- *)

(* The two mutable backends behind one face for the Insert/Delete/Flush
   arms.  [Xshard.Shard_down] maps to the same wire code as [Degraded]:
   from the client's point of view both mean "this write is refused
   until the store heals", and the message names the failed shard. *)
type live_backend = L_log of Xlog.t | L_shard of Xshard.t

let live_store t =
  match (Atomic.get t.serving).backend with
  | B_live log -> Some (L_log log)
  | B_shard sh -> Some (L_shard sh)
  | B_index _ -> None

let live_insert lb doc =
  match lb with L_log log -> Xlog.insert log doc | L_shard sh -> Xshard.insert sh doc

let live_remove lb id =
  match lb with L_log log -> Xlog.remove log id | L_shard sh -> Xshard.remove sh id

let live_flush = function
  | L_log log -> Xlog.flush log
  | L_shard sh -> Xshard.flush sh

let live_generation = function
  | L_log log -> Xlog.generation log
  | L_shard sh -> Xshard.generation sh

let op_name : P.request -> string = function
  | P.Ping -> "ping"
  | P.Query _ -> "query"
  | P.Query_batch _ -> "query_batch"
  | P.Stats -> "stats"
  | P.Reload _ -> "reload"
  | P.Insert _ -> "insert"
  | P.Delete _ -> "delete"
  | P.Flush -> "flush"
  | P.Health -> "health"
  | P.Subscribe _ -> "subscribe"
  | P.Wal_ack _ -> "wal_ack"
  | P.Promote -> "promote"
  | P.Repl_status -> "repl_status"
  | P.Query_bounded _ -> "query_bounded"
  | P.Fetch_snapshot _ -> "fetch_snapshot"
  | P.Unknown _ -> "unknown"

(* [Some hint] when this node is a replication follower: mutations are
   refused with [Not_primary] whose message {e is} the leader endpoint
   hint — the client chases it instead of retrying here. *)
let repl_follower t =
  match t.repl with
  | Some r when r.rp_hooks.repl_role () = `Follower ->
    Some (r.rp_hooks.repl_leader_hint ())
  | _ -> None

(* Everything except queries (which go through admission + the batched
   exec path) and the inline ops.  Runs on a pool worker. *)
let run_op t (req : P.request) : P.response =
  match req with
  | P.Ping -> P.Pong
  | P.Stats -> P.Stats_json (stats_json t)
  | P.Query _ | P.Query_batch _ ->
    (* routed through [dispatch_query], never here *)
    err P.Server_error "internal: query reached run_op"
  | P.Reload path ->
    (match reload ?path t with
     | gen -> P.Reloaded { generation = gen }
     | exception Xlog.Degraded reason ->
       err P.Degraded "store is read-only: %s" reason
     | exception e ->
       err P.Server_error "reload failed: %s" (Printexc.to_string e))
  | P.Insert { xml } ->
    (match repl_follower t with
     | Some hint -> err P.Not_primary "%s" hint
     | None ->
     match live_store t with
     | None -> err P.Bad_request "server is not serving a live store"
     | Some lb ->
       (match Xmlcore.Xml_parser.parse_string xml with
        | doc ->
          (match live_insert lb doc with
           | id -> P.Inserted { id }
           | exception Xlog.Degraded reason ->
             err P.Degraded "store is read-only: %s" reason
           | exception Xshard.Shard_down (i, reason) ->
             err P.Degraded "shard %d is down: %s" i reason
           | exception e ->
             err P.Server_error "insert failed: %s" (Printexc.to_string e))
        | exception Xmlcore.Xml_parser.Parse_error { pos; line; msg } ->
          err P.Bad_request "XML parse error at line %d (byte %d): %s" line
            pos msg))
  | P.Delete { id } ->
    (match repl_follower t with
     | Some hint -> err P.Not_primary "%s" hint
     | None ->
     match live_store t with
     | None -> err P.Bad_request "server is not serving a live store"
     | Some lb ->
       (match live_remove lb id with
        | existed -> P.Deleted { existed }
        | exception Xlog.Degraded reason ->
          err P.Degraded "store is read-only: %s" reason
        | exception Xshard.Shard_down (i, reason) ->
          err P.Degraded "shard %d is down: %s" i reason
        | exception e ->
          err P.Server_error "delete failed: %s" (Printexc.to_string e)))
  | P.Flush ->
    (match repl_follower t with
     | Some hint -> err P.Not_primary "%s" hint
     | None ->
     match live_store t with
     | None -> err P.Bad_request "server is not serving a live store"
     | Some lb ->
       (match live_flush lb with
        | () -> P.Flushed { generation = live_generation lb }
        | exception Xlog.Degraded reason ->
          err P.Degraded "store is read-only: %s" reason
        | exception Xshard.Shard_down (i, reason) ->
          err P.Degraded "shard %d is down: %s" i reason
        | exception e ->
          err P.Server_error "flush failed: %s" (Printexc.to_string e)))
  | P.Health ->
    (let sv = Atomic.get t.serving in
     match sv.backend with
     | B_index index ->
       P.Health_status
         {
           degraded = false;
           reason = "";
           generation = sv.gen;
           doc_count = Xseq.doc_count index;
         }
     | B_live log ->
       (* The health probe doubles as the recovery probe: if the store
          is degraded, test the disk and re-arm the write path when it
          has healed — so operators watching Health see the recovery
          happen without waiting for the next write attempt. *)
       (match Xlog.degraded_reason log with
        | Some _ -> ignore (Xlog.try_recover log : bool)
        | None -> ());
       let degraded, reason =
         match Xlog.degraded_reason log with
         | Some reason -> (true, reason)
         | None -> (false, "")
       in
       P.Health_status
         {
           degraded;
           reason;
           generation = Xlog.generation log;
           doc_count = Xlog.doc_count log;
         }
     | B_shard sh ->
       (* Same probe-on-health contract, per shard: degraded shards
          get a disk probe, down shards a re-open attempt, so watching
          Health heals whatever healed underneath.  The report is
          degraded as soon as any single shard refuses writes — the
          reason names them all. *)
       (match Xshard.degraded_shards sh with
        | [] -> ()
        | _ -> ignore (Xshard.try_recover sh : bool));
       let degraded, reason =
         match Xshard.degraded_shards sh with
         | [] -> (false, "")
         | l ->
           ( true,
             String.concat "; "
               (List.map
                  (fun (i, r) -> Printf.sprintf "shard %d: %s" i r)
                  l) )
       in
       P.Health_status
         {
           degraded;
           reason;
           generation = Xshard.generation sh;
           doc_count = Xshard.doc_count sh;
         })
  | P.Promote ->
    (match t.repl with
     | None -> err P.Unsupported "this server has no replication role"
     | Some r ->
       (match r.rp_hooks.repl_promote () with
        | Ok epoch -> P.Promoted { epoch }
        | Error m -> err P.Server_error "promote failed: %s" m
        | exception e ->
          err P.Server_error "promote failed: %s" (Printexc.to_string e)))
  | P.Repl_status ->
    (match t.repl with
     | None -> err P.Unsupported "this server has no replication role"
     | Some r ->
       let h = r.rp_hooks in
       let lag_records, lag_bytes = h.repl_lag () in
       P.Repl_state
         {
           role = h.repl_role ();
           epoch = h.repl_epoch ();
           durable = Xlog.wal_durable_position h.repl_log;
           next_id = Xlog.next_id h.repl_log;
           leader_hint = h.repl_leader_hint ();
           lag_records;
           lag_bytes;
         })
  | P.Subscribe _ | P.Wal_ack _ | P.Query_bounded _ | P.Fetch_snapshot _ ->
    (* handled inline on the loop thread, never here *)
    err P.Server_error "internal: replication op reached run_op"
  | P.Unknown { op } ->
    err P.Unsupported "request opcode 0x%02x is not supported by this server"
      op

(* Which requests change the store — the ones whose completion (with
   replication on) should wake the loops so subscription pumps ship the
   new records without waiting out a tick. *)
let repl_mutation = function
  | P.Insert _ | P.Delete _ | P.Flush -> true
  | _ -> false

let nudge_loops t = Array.iter (fun l -> Ev.wakeup l.l_ev) t.loops

(* Semi-sync parking decision, made on the worker after the mutation
   applied: force the record to stable storage locally (the position a
   follower acks must exist durably on both sides), then hold the
   response until {!release_waiters} sees enough acks.  A failed sync
   skips parking — the response goes out as-is and the local degrade
   machinery has already flipped the store read-only. *)
let repl_parking t req (resp : P.response) =
  match t.repl with
  | Some r
    when r.rp_hooks.repl_sync_replicas > 0
         && repl_mutation req
         && (match resp with P.Error _ -> false | _ -> true)
         && r.rp_hooks.repl_role () = `Primary -> (
    match Xlog.sync r.rp_hooks.repl_log with
    | () -> Some (r, Xlog.wal_durable_position r.rp_hooks.repl_log)
    | exception _ -> None)
  | _ -> None

let park_waiter r c slot resp ~pos =
  let w =
    {
      w_conn = c;
      w_slot = slot;
      w_resp = resp;
      w_pos = pos;
      w_deadline =
        Unix.gettimeofday ()
        +. (float_of_int (max 1 r.rp_hooks.repl_ack_timeout_ms) /. 1000.);
    }
  in
  Mutex.lock r.rp_m;
  r.rp_waiters <- w :: r.rp_waiters;
  Mutex.unlock r.rp_m

(* --- connection state machine ---------------------------------------------- *)

let tick_ms = 250 (* loop wait bound so the stop flag is noticed promptly *)

(* Write-side backpressure high-water mark.  A connection whose unsent
   output exceeds this stops reading — the pipeline cap alone is not
   enough, because a slot is popped the moment its response is encoded,
   so a peer pipelining small queries with large results while never
   draining its socket would otherwise regrow the slot budget forever
   and pin unbounded memory.  Reading resumes once the kernel has
   accepted enough bytes to fall back under the mark.  Worst case a
   connection holds the mark plus the responses of slots already open
   when it tripped: bounded, and only a peer ignoring its own replies
   ever gets near it. *)
let outq_hwm = 1 lsl 20

(* Snapshot-transfer chunk size: a few chunks fit under [outq_hwm], so
   the stream refills in kernel-drain-sized steps without ever parking
   more than the mark. *)
let xfer_chunk = 256 * 1024

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_conn t c =
  if not c.c_closed then begin
    c.c_closed <- true;
    (match (c.c_sub, t.repl) with
     | Some sub, Some r ->
       (* Dead subscriber: stop pinning its WAL files and drop its ack
          from the semi-sync floor (parked mutations now waiting on a
          replica that no longer exists time out). *)
       c.c_sub <- None;
       Mutex.lock r.rp_m;
       r.rp_subs <- List.filter (fun s -> s != sub) r.rp_subs;
       Mutex.unlock r.rp_m
     | _ -> ());
    (match c.c_xfer with
     | Some xf ->
       c.c_xfer <- None;
       (match t.repl with
        | Some r ->
          Mutex.lock r.rp_m;
          r.rp_xfers <- List.filter (fun x -> x != xf) r.rp_xfers;
          Mutex.unlock r.rp_m
        | None -> ())
     | None -> ());
    Ev.remove c.c_loop.l_ev c.c_fd;
    Hashtbl.remove c.c_loop.l_conns c.c_fd;
    close_quietly c.c_fd;
    (* Workers still owing completions for this connection post into the
       loop as usual; the flush path sees [c_closed] and drops them.
       Their admission permits were released by the worker already. *)
    Metrics.connection_closed t.metrics
  end

(* Keeps the kernel's interest set in sync with the state machine; only
   issues the syscall when the bits actually changed.  The cached bits
   are updated only after the syscall succeeds: caching an interest the
   kernel never registered would strand the connection (no events ever
   fire, nothing closes it), so a failed modify closes it instead. *)
let update_interest t c =
  if not c.c_closed then begin
    let read = not c.c_paused && not c.c_close_after_flush in
    let write = not (Queue.is_empty c.c_outq) in
    if read <> c.c_want_read || write <> c.c_want_write then
      match Ev.modify c.c_loop.l_ev c.c_fd ~read ~write with
      | () ->
        c.c_want_read <- read;
        c.c_want_write <- write
      | exception Unix.Unix_error _ -> close_conn t c
  end

(* Vectored write of whatever is queued.  Under an active fault
   injector the batched writev is bypassed — each slice goes through
   the {!Xfault.Io} shim one at a time, so schedules targeting [Send]
   still see every server-side socket write. *)
let send_parts fd (parts : (string * int * int) array) =
  match Xfault.active () with
  | None ->
    Ev.writev fd
      (Array.map (fun (s, off, len) -> (Bytes.unsafe_of_string s, off, len))
         parts)
  | Some _ ->
    let s, off, len = parts.(0) in
    Xfault.Io.send_substring fd s off len

let collect_parts c =
  let parts = ref [] and n = ref 0 in
  (try
     Queue.iter
       (fun s ->
         if !n >= Ev.iov_max then raise Exit;
         let off = if !n = 0 then c.c_out_off else 0 in
         parts := (s, off, String.length s - off) :: !parts;
         incr n)
       c.c_outq
   with Exit -> ());
  Array.of_list (List.rev !parts)

let advance_outq c n =
  c.c_outq_bytes <- c.c_outq_bytes - n;
  let left = ref n in
  while !left > 0 do
    let head = Queue.peek c.c_outq in
    let avail = String.length head - c.c_out_off in
    if !left >= avail then begin
      ignore (Queue.pop c.c_outq : string);
      c.c_out_off <- 0;
      left := !left - avail
    end
    else begin
      c.c_out_off <- c.c_out_off + !left;
      left := 0
    end
  done

(* Writes as much of the output queue as the kernel takes right now;
   a short write leaves the rest for the next write-readiness event.
   Mutually recursive with the read side: a write that drains the
   output queue under the backpressure mark resumes reading. *)
let rec try_write t c =
  if not c.c_closed then begin
    let rec go () =
      if Queue.is_empty c.c_outq then begin
        if c.c_close_after_flush && Queue.is_empty c.c_slots then
          close_conn t c
      end
      else begin
        let parts = collect_parts c in
        let want = Array.fold_left (fun a (_, _, l) -> a + l) 0 parts in
        match send_parts c.c_fd parts with
        | n ->
          advance_outq c n;
          if n >= want then go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> close_conn t c
      end
    in
    go ();
    (* A live snapshot transfer refills the output queue as the kernel
       drains it: produce strictly behind the backpressure mark, write,
       repeat until the mark is hit or the stream ends. *)
    let continue = ref (c.c_xfer <> None) in
    while
      !continue && (not c.c_closed) && c.c_outq_bytes <= outq_hwm
      && c.c_xfer <> None
    do
      if fill_xfer t c then go () else continue := false
    done;
    maybe_resume t c;
    update_interest t c
  end

(* In-order response delivery: flush slots from the head of the queue
   for as long as their responses have arrived.  A later request that
   finished early sits behind the head — pipelining stays transparent.
   Encoded slices go to the output queue; the caller decides when to
   hit the socket ([try_write]), so a burst of completions becomes one
   writev. *)
and flush_ready t c =
  if not c.c_closed then begin
    let continue = ref true in
    while
      !continue
      && (not (Queue.is_empty c.c_slots))
      && Atomic.get (Queue.peek c.c_slots).sl_resp <> None
    do
      let slot = Queue.pop c.c_slots in
      match Atomic.get slot.sl_resp with
      | None -> continue := false (* unreachable: checked above *)
      | Some resp ->
        if slot.sl_op <> "" then
          Metrics.record_request t.metrics ~op:slot.sl_op
            ~latency_s:(Unix.gettimeofday () -. slot.sl_t0);
        (* A response too large to frame (a query matching ~2M+ ids
           overflows [P.max_payload]) must not strand the client or
           leak past this slot: substitute a Server_error response the
           peer can actually receive.  The slot is already popped, so
           in-order delivery is preserved for everything behind it. *)
        let resp, parts =
          match P.encode_response_iov resp with
          | parts -> (resp, parts)
          | exception Invalid_argument _ ->
            let resp =
              err P.Server_error
                "result exceeds the %d byte response payload cap"
                P.max_payload
            in
            (resp, P.encode_response_iov resp)
        in
        (match resp with
         | P.Error { code; _ } ->
           Metrics.record_error t.metrics ~code:(P.error_code_to_string code)
         | _ -> ());
        Metrics.add_bytes t.metrics ~received:0
          ~sent:(List.fold_left (fun a s -> a + String.length s) 0 parts);
        List.iter
          (fun s ->
            c.c_outq_bytes <- c.c_outq_bytes + String.length s;
            Queue.push s c.c_outq)
          parts
    done;
    (* The pipeline cap may have cleared: resume reading (frames may
       already be buffered in the decoder). *)
    maybe_resume t c
  end

(* Resume reading iff every pause reason has cleared: pipeline slots
   below the cap AND queued output back under the backpressure mark
   (and the loop is not draining).  Called from both the completion
   path (slots freed) and the write path (bytes drained). *)
and maybe_resume t c =
  if
    c.c_paused
    && (not c.c_loop.l_draining)
    && Queue.length c.c_slots < t.config.max_pipeline
    && c.c_outq_bytes <= outq_hwm
  then begin
    c.c_paused <- false;
    drain_frames t c
  end

and complete t c slot resp =
  Atomic.set slot.sl_resp (Some resp);
  flush_ready t c

(* Pull complete frames out of the decoder and open a slot for each.
   Stops at the pipeline cap or the output high-water mark (reading
   resumes as responses flush and the peer drains them) and on corrupt
   input (answer one error frame, then close once it has been written —
   the stream cannot be resynchronised). *)
and drain_frames t c =
  let rec go () =
    if c.c_closed || c.c_close_after_flush then ()
    else if
      Queue.length c.c_slots >= t.config.max_pipeline
      || c.c_outq_bytes > outq_hwm
    then c.c_paused <- true
    else
      match P.Decoder.next c.c_dec with
      | P.Decoder.Need_more -> ()
      | P.Decoder.Corrupt msg ->
        let slot =
          { sl_op = ""; sl_t0 = Unix.gettimeofday ();
            sl_resp = Atomic.make None }
        in
        Queue.push slot c.c_slots;
        c.c_close_after_flush <- true;
        complete t c slot (err P.Bad_request "bad frame: %s" msg)
      | P.Decoder.Frame frame ->
        Metrics.add_bytes t.metrics ~received:(String.length frame) ~sent:0;
        handle_frame t c frame;
        go ()
  in
  go ()

and handle_frame t c frame =
  let new_slot op =
    let s =
      { sl_op = op; sl_t0 = Unix.gettimeofday (); sl_resp = Atomic.make None }
    in
    Queue.push s c.c_slots;
    s
  in
  match P.decode_request frame with
  | Error msg ->
    (* A well-framed payload that does not decode: answer and drop the
       connection, exactly like the blocking server did. *)
    let slot = new_slot "" in
    c.c_close_after_flush <- true;
    complete t c slot (err P.Bad_request "bad frame: %s" msg)
  | Ok req -> (
    match req with
    | P.Ping -> complete t c (new_slot "ping") P.Pong
    | P.Stats -> complete t c (new_slot "stats") (P.Stats_json (stats_json t))
    | P.Unknown { op } ->
      complete t c (new_slot "unknown")
        (err P.Unsupported
           "request opcode 0x%02x is not supported by this server" op)
    | P.Query { xpath; timeout_ms } ->
      dispatch_query t c ~timeout_ms ~batch:false [| xpath |]
    | P.Query_batch { xpaths; timeout_ms } ->
      dispatch_query t c ~timeout_ms ~batch:true xpaths
    | P.Subscribe { epoch; pos } -> handle_subscribe t c ~epoch ~pos
    | P.Wal_ack { pos } -> handle_wal_ack t c pos
    | P.Fetch_snapshot { token; cursor } ->
      handle_fetch_snapshot t c ~token ~cursor
    | P.Query_bounded { xpath; timeout_ms; min_gen } -> (
      (* The staleness guard runs on the loop thread — it is one atomic
         id-watermark read; only queries that pass pay admission. *)
      match t.repl with
      | None ->
        complete t c (new_slot "query_bounded")
          (err P.Unsupported
             "this server has no replication role (bounded-staleness \
              reads need one)")
      | Some r ->
        if Xlog.next_id r.rp_hooks.repl_log < min_gen then
          complete t c (new_slot "query_bounded")
            (err P.Not_primary "%s" (r.rp_hooks.repl_leader_hint ()))
        else dispatch_query t c ~timeout_ms ~batch:false [| xpath |])
    | P.Reload _ | P.Insert _ | P.Delete _ | P.Flush | P.Health
    | P.Promote | P.Repl_status ->
      (* Mutations, reloads and health probes do real disk work; they
         run on a worker so the loop never blocks.  Pipelined requests
         behind them may execute concurrently — responses still flush
         in order. *)
      let slot = new_slot (op_name req) in
      Pool.async t.pool (fun () ->
          let resp =
            try run_op t req
            with e -> err P.Server_error "%s" (Printexc.to_string e)
          in
          match repl_parking t req resp with
          | Some (r, pos) ->
            park_waiter r c slot resp ~pos;
            (* Wake the loops twice over: pumps ship the new record to
               subscribers now, and their acks release the parked
               response. *)
            nudge_loops t
          | None ->
            post t c slot resp;
            if t.repl <> None && repl_mutation req then nudge_loops t))

and dispatch_query t c ~timeout_ms ~batch xpaths =
  let op = if batch then "query_batch" else "query" in
  let slot =
    { sl_op = op; sl_t0 = Unix.gettimeofday (); sl_resp = Atomic.make None }
  in
  Queue.push slot c.c_slots;
  (* Parse before admission: a malformed query is a [Bad_request], not
     load. *)
  let patterns = Array.map parse_xpath xpaths in
  match
    Array.find_map (function Error m -> Some m | Ok _ -> None) patterns
  with
  | Some m -> complete t c slot (err P.Bad_request "%s" m)
  | None ->
    let patterns =
      Array.map (function Ok p -> p | Error _ -> assert false) patterns
    in
    if not (try_admit t) then
      complete t c slot
        (err P.Overloaded "server at capacity (%d requests in flight)"
           t.config.max_pending)
    else begin
      let deadline = deadline_of t timeout_ms in
      c.c_loop.l_exec <-
        { x_conn = c; x_slot = slot; x_patterns = patterns; x_batch = batch;
          x_deadline = deadline }
        :: c.c_loop.l_exec
    end

(* Worker side: fill the slot, post the completion, wake the loop. *)
and post t c slot resp =
  ignore t;
  Atomic.set slot.sl_resp (Some resp);
  let l = c.c_loop in
  Mutex.lock l.l_m;
  l.l_compl <- c :: l.l_compl;
  Mutex.unlock l.l_m;
  Ev.wakeup l.l_ev

(* --- replication: subscription pump + semi-sync ---------------------------- *)

(* Encode a pushed (slot-less) frame straight onto the output queue.
   Same oversize fallback as {!flush_ready}; the caller decides when to
   hit the socket. *)
and push_response t c resp =
  let parts =
    match P.encode_response_iov resp with
    | parts -> parts
    | exception Invalid_argument _ ->
      P.encode_response_iov
        (err P.Server_error "result exceeds the %d byte response payload cap"
           P.max_payload)
  in
  Metrics.add_bytes t.metrics ~received:0
    ~sent:(List.fold_left (fun a s -> a + String.length s) 0 parts);
  List.iter
    (fun s ->
      c.c_outq_bytes <- c.c_outq_bytes + String.length s;
      Queue.push s c.c_outq)
    parts

and drop_sub r sub =
  sub.s_conn.c_sub <- None;
  Mutex.lock r.rp_m;
  r.rp_subs <- List.filter (fun s -> s != sub) r.rp_subs;
  Mutex.unlock r.rp_m

(* --- snapshot transfer (sender side) ---------------------------------- *)

and unpin_xfer t xf =
  match t.repl with
  | Some r ->
    Mutex.lock r.rp_m;
    r.rp_xfers <- List.filter (fun x -> x != xf) r.rp_xfers;
    Mutex.unlock r.rp_m
  | None -> ()

(* Enqueue stream chunks up to the backpressure mark.  No socket calls
   here — the caller ([try_write]) owns the write side.  [true] iff
   anything was enqueued. *)
and fill_xfer t c =
  match c.c_xfer with
  | None -> false
  | Some xf ->
    let m = xf.xf_manifest in
    let filled = ref false in
    let continue = ref true in
    while !continue && (not c.c_closed) && c.c_outq_bytes <= outq_hwm do
      let len = min xfer_chunk (m.Xlog.Transfer.x_total - xf.xf_offset) in
      match Xlog.Transfer.read_slice xf.xf_dir m ~off:xf.xf_offset ~len with
      | Error msg ->
        (* The files moved under the manifest (a compaction pruned the
           WAL prefix mid-stream): fail this transfer; the fetcher
           re-requests and restarts under a fresh token. *)
        push_response t c (err P.Server_error "snapshot transfer: %s" msg);
        c.c_xfer <- None;
        unpin_xfer t xf;
        filled := true;
        continue := false
      | Ok data ->
        let dlen = String.length data in
        let last = xf.xf_offset + dlen >= m.Xlog.Transfer.x_total in
        push_response t c
          (P.Snapshot_chunk
             {
               token = m.Xlog.Transfer.x_token;
               total = m.Xlog.Transfer.x_total;
               offset = xf.xf_offset;
               last;
               crc = Xstorage.Store.checksum_string data 0 dlen;
               data;
             });
        xf.xf_offset <- xf.xf_offset + dlen;
        filled := true;
        if last then begin
          c.c_xfer <- None;
          unpin_xfer t xf;
          continue := false
        end
    done;
    !filled

and handle_fetch_snapshot t c ~token ~cursor =
  let answer resp =
    let s =
      { sl_op = "fetch_snapshot"; sl_t0 = Unix.gettimeofday ();
        sl_resp = Atomic.make None }
    in
    Queue.push s c.c_slots;
    complete t c s resp
  in
  if c.c_sub <> None then
    answer (err P.Bad_request "connection is subscribed to the WAL stream")
  else
    match (Atomic.get t.serving).backend with
    | B_index _ | B_shard _ ->
      answer
        (err P.Unsupported "snapshot transfer requires serving a live store")
    | B_live log -> (
      (* A re-request supersedes any transfer already streaming on this
         connection — the resume/restart decision is the client's. *)
      (match c.c_xfer with
       | Some xf ->
         c.c_xfer <- None;
         unpin_xfer t xf
       | None -> ());
      let dir = Xlog.dir log in
      match Xlog.Transfer.manifest_of_dir dir with
      | Error m -> answer (err P.Server_error "snapshot transfer: %s" m)
      | Ok man ->
        (* Resume only when the fetcher holds the current snapshot's
           token and a sane cursor; anything else restarts at 0 under
           the (possibly new) token. *)
        let offset =
          if
            String.equal token man.Xlog.Transfer.x_token
            && cursor >= 0
            && cursor <= man.Xlog.Transfer.x_total
          then cursor
          else 0
        in
        let xf = { xf_dir = dir; xf_manifest = man; xf_offset = offset } in
        c.c_xfer <- Some xf;
        (match t.repl with
         | Some r ->
           Mutex.lock r.rp_m;
           r.rp_xfers <- xf :: r.rp_xfers;
           Mutex.unlock r.rp_m
         | None -> ());
        try_write t c)

and handle_subscribe t c ~epoch ~pos =
  let slot op =
    let s =
      { sl_op = op; sl_t0 = Unix.gettimeofday (); sl_resp = Atomic.make None }
    in
    Queue.push s c.c_slots;
    s
  in
  match t.repl with
  | None ->
    complete t c (slot "subscribe")
      (err P.Unsupported "this server has no replication role")
  | Some r ->
    let h = r.rp_hooks in
    (* Fencing, server side: a subscriber that has seen a higher epoch
       proves this primary was deposed while it was away — step down
       before deciding the role answer below. *)
    h.repl_observe_epoch epoch;
    if h.repl_role () <> `Primary then
      complete t c (slot "subscribe")
        (err P.Not_primary "%s" (h.repl_leader_hint ()))
    else if c.c_sub <> None then
      complete t c (slot "subscribe")
        (err P.Bad_request "connection is already subscribed")
    else begin
      let sub =
        { s_conn = c; s_cursor = pos; s_acked = pos; s_last_send = 0. }
      in
      c.c_sub <- Some sub;
      Mutex.lock r.rp_m;
      r.rp_subs <- sub :: r.rp_subs;
      Mutex.unlock r.rp_m;
      (* One immediate heartbeat — the subscriber learns the primary's
         epoch and durable end before the first batch — then whatever
         the log already holds past its cursor. *)
      push_response t c
        (P.Repl_heartbeat
           {
             epoch = h.repl_epoch ();
             durable = Xlog.wal_durable_position h.repl_log;
             next_id = Xlog.next_id h.repl_log;
           });
      sub.s_last_send <- Unix.gettimeofday ();
      pump_sub t r sub
    end

(* The subscriber durably applied the stream up to [pos]: one-way, no
   response slot.  On a connection that never subscribed the frame is
   meaningless and dropped (a build with no replication at all answers
   [Unsupported] instead, so a misdirected client is not silently
   ignored). *)
and handle_wal_ack t c pos =
  match (t.repl, c.c_sub) with
  | None, _ ->
    let s =
      { sl_op = "wal_ack"; sl_t0 = Unix.gettimeofday ();
        sl_resp = Atomic.make None }
    in
    Queue.push s c.c_slots;
    complete t c s (err P.Unsupported "this server has no replication role")
  | Some r, Some sub ->
    if Xlog.Wal.position_compare pos sub.s_acked > 0 then sub.s_acked <- pos;
    release_waiters t r
  | Some _, None -> ()

(* Ship everything committed past the cursor, bounded by the write-side
   backpressure mark: a slow subscriber pins at most the high-water mark
   of encoded batches, and the pump resumes from its cursor once the
   kernel drains them.  Runs on the connection's owning loop only. *)
and pump_sub t r sub =
  let c = sub.s_conn in
  let still_current () =
    match c.c_sub with Some s -> s == sub | None -> false
  in
  if (not c.c_closed) && still_current () then begin
    let h = r.rp_hooks in
    if h.repl_role () <> `Primary then begin
      (* Deposed mid-stream: the subscriber must chase the new leader. *)
      push_response t c (err P.Not_primary "%s" (h.repl_leader_hint ()));
      drop_sub r sub;
      c.c_close_after_flush <- true;
      try_write t c
    end
    else begin
      let dir = Xlog.dir h.repl_log in
      let continue = ref true in
      let sent = ref false in
      while !continue && (not c.c_closed) && c.c_outq_bytes <= outq_hwm do
        match Xlog.Wal.tail ~dir sub.s_cursor with
        | Ok b ->
          if
            b.Xlog.Wal.b_count > 0
            || Xlog.Wal.position_compare b.Xlog.Wal.b_next sub.s_cursor <> 0
          then begin
            (* A zero-record batch that still advances mirrors a file
               rotation — the follower must replay it as one. *)
            push_response t c
              (P.Wal_batch
                 {
                   epoch = h.repl_epoch ();
                   from = sub.s_cursor;
                   next = b.Xlog.Wal.b_next;
                   count = b.Xlog.Wal.b_count;
                   records = b.Xlog.Wal.b_records;
                 });
            sub.s_cursor <- b.Xlog.Wal.b_next;
            sent := true
          end
          else continue := false
        | Error (Xlog.Wal.Position_pruned { earliest }) ->
          push_response t c
            (err P.Pruned
               "wal pruned past the subscription; earliest retained \
                position is %s"
               (Xlog.Wal.position_to_string earliest));
          drop_sub r sub;
          c.c_close_after_flush <- true;
          continue := false
        | Error (Xlog.Wal.Tail_error m) ->
          push_response t c (err P.Server_error "wal tail: %s" m);
          drop_sub r sub;
          c.c_close_after_flush <- true;
          continue := false
      done;
      let now = Unix.gettimeofday () in
      if !sent then sub.s_last_send <- now
      else if
        (not c.c_closed) && still_current () && now -. sub.s_last_send > 1.0
      then begin
        (* Idle heartbeat: lets the follower tell a quiet primary from a
           dead one, and keeps its staleness watermark fresh. *)
        push_response t c
          (P.Repl_heartbeat
             {
               epoch = h.repl_epoch ();
               durable = Xlog.wal_durable_position h.repl_log;
               next_id = Xlog.next_id h.repl_log;
             });
        sub.s_last_send <- now
      end;
      try_write t c
    end
  end

(* Release parked mutations: the semi-sync floor is the k-th highest
   subscriber ack (k = [repl_sync_replicas]); everything at or under it
   is replicated widely enough to acknowledge.  Expired waiters answer
   [Timeout] — the write applied locally but the replicas are silent,
   the same indeterminate verdict as any timeout. *)
and release_waiters t r =
  let now = Unix.gettimeofday () in
  Mutex.lock r.rp_m;
  let k = r.rp_hooks.repl_sync_replicas in
  let floor =
    let acks =
      List.sort
        (fun a b -> Xlog.Wal.position_compare b a)
        (List.map (fun s -> s.s_acked) r.rp_subs)
    in
    if k > 0 && List.length acks >= k then Some (List.nth acks (k - 1))
    else None
  in
  let ready, expired, keep =
    List.fold_left
      (fun (rd, ex, kp) w ->
        match floor with
        | Some f when Xlog.Wal.position_compare w.w_pos f <= 0 ->
          (w :: rd, ex, kp)
        | _ ->
          if now > w.w_deadline then (rd, w :: ex, kp) else (rd, ex, w :: kp))
      ([], [], []) r.rp_waiters
  in
  r.rp_waiters <- List.rev keep;
  Mutex.unlock r.rp_m;
  List.iter (fun w -> post t w.w_conn w.w_slot w.w_resp) ready;
  List.iter
    (fun w ->
      post t w.w_conn w.w_slot
        (err P.Timeout
           "replicated to fewer than %d replica(s) within %dms (the write \
            is applied locally; its replication is indeterminate)"
           r.rp_hooks.repl_sync_replicas r.rp_hooks.repl_ack_timeout_ms))
    expired

(* Per-tick replication work for one loop: pump the subscriptions this
   loop owns (connection state is loop-affine), and sweep the semi-sync
   waiters for expiry — acks release them promptly from the ack path;
   the tick only bounds how late a timeout verdict can be. *)
let repl_tick t l =
  match t.repl with
  | None -> ()
  | Some r ->
    Mutex.lock r.rp_m;
    let subs = List.filter (fun s -> s.s_conn.c_loop == l) r.rp_subs in
    let have_waiters = r.rp_waiters <> [] in
    Mutex.unlock r.rp_m;
    List.iter (fun sub -> pump_sub t r sub) subs;
    if have_waiters then release_waiters t r

(* Executes one chunk of admitted queries.  Per-response costs are
   amortised over the chunk: matcher stats merge once, admission
   permits release once, and completions post with one mutex round and
   one wakeup per loop — not one per query (a pipelined burst would
   otherwise pay an eventfd write per response). *)
let run_exec t items =
  let stats = Xquery.Matcher.create_stats () in
  List.iter
    (fun x ->
      let resp =
        try
          if t.config.debug_delay_ms > 0 then
            Thread.delay (float_of_int t.config.debug_delay_ms /. 1000.);
          if expired x.x_deadline then
            err P.Timeout "deadline expired before execution"
          else begin
            let sv = Atomic.get t.serving in
            let ids = Array.map (answer_pattern t sv stats) x.x_patterns in
            let generation = serving_gen sv in
            if x.x_batch then P.Batch_result { generation; ids }
            else P.Result { generation; ids = ids.(0) }
          end
        with e -> err P.Server_error "%s" (Printexc.to_string e)
      in
      Atomic.set x.x_slot.sl_resp (Some resp))
    items;
  Metrics.merge_matcher t.metrics stats;
  Mutex.lock t.adm_m;
  t.in_flight <- t.in_flight - List.length items;
  Mutex.unlock t.adm_m;
  let rec post_all = function
    | [] -> ()
    | x :: _ as l ->
      let loop = x.x_conn.c_loop in
      let mine, others =
        List.partition (fun y -> y.x_conn.c_loop == loop) l
      in
      Mutex.lock loop.l_m;
      List.iter (fun y -> loop.l_compl <- y.x_conn :: loop.l_compl) mine;
      Mutex.unlock loop.l_m;
      Ev.wakeup loop.l_ev;
      post_all others
  in
  post_all items

(* Ship this tick's admitted queries to the pool in a few chunks:
   enough jobs to spread over the worker domains, big enough that a
   pipelined burst does not pay one handoff per frame. *)
let submit_exec t l =
  match l.l_exec with
  | [] -> ()
  | items ->
    l.l_exec <- [];
    let items = List.rev items in
    let n = List.length items in
    let chunk_size =
      max 1 (min 32 ((n + t.config.workers - 1) / t.config.workers))
    in
    let rec ship = function
      | [] -> ()
      | rest ->
        let chunk = List.filteri (fun i _ -> i < chunk_size) rest in
        let rest' = List.filteri (fun i _ -> i >= chunk_size) rest in
        Pool.async t.pool (fun () -> run_exec t chunk);
        ship rest'
    in
    ship items

let drain_completions t l =
  Mutex.lock l.l_m;
  let compl = l.l_compl in
  l.l_compl <- [];
  Mutex.unlock l.l_m;
  (* Reverse for FIFO fairness; flush_ready is idempotent, so a
     connection posted twice just flushes once and no-ops after. *)
  List.iter
    (fun c -> if not c.c_closed then (flush_ready t c; try_write t c))
    (List.rev compl)

let conn_read t c =
  let scratch = c.c_loop.l_scratch in
  let cap = Bytes.length scratch in
  let rec go budget =
    if budget > 0 then
      match Xfault.Io.recv c.c_fd scratch 0 cap with
      | 0 -> close_conn t c
      | n ->
        P.Decoder.feed c.c_dec scratch 0 n;
        drain_frames t c;
        if
          (not c.c_closed) && (not c.c_paused)
          && (not c.c_close_after_flush)
          && n = cap
        then go (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go budget
      | exception Unix.Unix_error _ -> close_conn t c
      | exception _ -> close_conn t c
  in
  go 4;
  (* One socket write for everything this readiness produced: inline
     completions and any worker responses that flushed meanwhile. *)
  if not c.c_closed then try_write t c

(* --- accept / event loops -------------------------------------------------- *)

let accept_burst t l lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
      Unix.set_nonblock fd;
      (* No-op (EOPNOTSUPP) on Unix-domain sockets. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let c =
        {
          c_fd = fd;
          c_dec = P.Decoder.create ();
          c_slots = Queue.create ();
          c_outq = Queue.create ();
          c_out_off = 0;
          c_outq_bytes = 0;
          c_paused = false;
          c_want_read = true;
          c_want_write = false;
          c_closed = false;
          c_close_after_flush = false;
          c_sub = None;
          c_xfer = None;
          c_loop = l;
        }
      in
      (match Ev.add l.l_ev fd ~read:true ~write:false with
       | () ->
         Hashtbl.replace l.l_conns fd c;
         Metrics.connection_opened t.metrics
       | exception Unix.Unix_error _ -> close_quietly fd)
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR),
           _, _) ->
      (* EAGAIN includes losing the race for a shared listener to a
         sibling loop — both are "nothing to accept right now". *)
      continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

(* Answer everything already owed — decoded requests and queued output
   — bounded by [drain_timeout_s], then close what is left. *)
let loop_drain t l =
  l.l_draining <- true;
  Hashtbl.iter
    (fun _ c ->
      if not c.c_closed then begin
        c.c_paused <- true;
        update_interest t c
      end)
    l.l_conns;
  List.iter (fun fd -> Ev.remove l.l_ev fd) l.l_listeners;
  submit_exec t l;
  let owed () =
    Hashtbl.fold
      (fun _ c acc ->
        acc || not (Queue.is_empty c.c_slots && Queue.is_empty c.c_outq))
      l.l_conns false
  in
  let deadline = Unix.gettimeofday () +. t.config.drain_timeout_s in
  while owed () && Unix.gettimeofday () < deadline do
    let evs = Ev.wait l.l_ev ~timeout_ms:50 in
    drain_completions t l;
    List.iter
      (fun (ev : Ev.event) ->
        match Hashtbl.find_opt l.l_conns ev.Ev.fd with
        | Some c when (not c.c_closed) && ev.Ev.writable -> try_write t c
        | _ -> ())
      evs
  done;
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) l.l_conns [] in
  List.iter (fun c -> close_conn t c) conns

let loop_run t l =
  while not (Atomic.get t.stop_requested) do
    (try
       let evs = Ev.wait l.l_ev ~timeout_ms:tick_ms in
       drain_completions t l;
       List.iter
         (fun (ev : Ev.event) ->
           if List.mem ev.Ev.fd l.l_listeners then begin
             if ev.Ev.readable then accept_burst t l ev.Ev.fd
           end
           else
             match Hashtbl.find_opt l.l_conns ev.Ev.fd with
             | None -> ()
             | Some c ->
               if ev.Ev.writable && not c.c_closed then try_write t c;
               if ev.Ev.readable && not c.c_closed then conn_read t c)
         evs;
       submit_exec t l;
       repl_tick t l
     with e ->
       (* A loop must never die under a connection: drop the tick and
          carry on (individual connection errors close only that
          connection; anything else reaching here is a bug we survive). *)
       ignore e)
  done;
  loop_drain t l

(* --- lifecycle ------------------------------------------------------------- *)

let bind_tcp ~reuseport host port =
  let inet =
    try Unix.inet_addr_of_string host
    with Failure _ ->
      (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
       with Not_found -> Unix.inet_addr_loopback)
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     if reuseport then Unix.setsockopt fd Unix.SO_REUSEPORT true;
     Unix.bind fd (Unix.ADDR_INET (inet, port));
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     close_quietly fd;
     raise e);
  fd

let bind_unix path =
  (* A previous unclean shutdown may have left the socket file; binding
     over it is the operator-friendly behaviour. *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     close_quietly fd;
     raise e);
  fd

let request_stop t =
  Atomic.set t.stop_requested true;
  (* Nudge every loop out of its wait; safe from a signal handler. *)
  Array.iter (fun l -> Ev.wakeup l.l_ev) t.loops

let coordinator_run t loop_threads =
  while not (Atomic.get t.stop_requested) do
    Thread.delay 0.05
  done;
  Array.iter (fun l -> Ev.wakeup l.l_ev) t.loops;
  List.iter (fun th -> try Thread.join th with _ -> ()) loop_threads;
  (* Loops are gone: stop accepting, remove Unix socket files so a
     clean shutdown leaves nothing behind. *)
  List.iter (fun (fd, _) -> close_quietly fd) t.listeners;
  List.iter
    (fun (_, addr) ->
      match addr with
      | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ())
    t.listeners;
  (* Let in-pool work finish and join the worker domains; workers may
     still post completions until here, so the loops' event fds close
     only after the pool is down. *)
  Pool.shutdown t.pool;
  Array.iter (fun l -> Ev.close l.l_ev) t.loops;
  Mutex.lock t.state_m;
  t.stopped <- true;
  Condition.broadcast t.state_cv;
  Mutex.unlock t.state_m

let start t addrs =
  if addrs = [] then invalid_arg "Server.start: no addresses";
  (* A peer that vanishes mid-response must surface as EPIPE on the
     write, not kill the process.  Idempotent; no-op off Unix. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* SIGTERM and SIGINT trigger the same orderly shutdown as
     {!request_stop}: drain, close listeners, unlink Unix socket files —
     an operator's Ctrl-C must not leave stale socket files behind.
     [request_stop] is async-signal-safe (an atomic store + one eventfd
     write). *)
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop t))
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> request_stop t))
   with Invalid_argument _ -> ());
  Mutex.lock t.state_m;
  if t.started then begin
    Mutex.unlock t.state_m;
    invalid_arg "Server.start: already started"
  end;
  t.started <- true;
  Mutex.unlock t.state_m;
  let shards = max 1 t.config.accept_shards in
  (* Unix-domain listeners are shared: one socket registered in every
     loop's readiness set (the kernel wakes whichever loops it likes;
     losers see EAGAIN).  TCP listeners shard with SO_REUSEPORT — one
     socket per loop, kernel-hashed flow steering, no thundering herd —
     falling back to a shared socket where the option is refused. *)
  let shared = ref [] in
  let dedicated = Array.make shards [] in
  let record = ref [] in
  let evs = ref [] in
  (* A bind or loop-setup failure partway through (say the port taken
     between two SO_REUSEPORT binds, or an fd limit hit creating the
     i-th epoll) must not leak the listeners already bound or leave
     [t.started] stuck: release everything acquired so far and return
     the server to its never-started state before re-raising, so the
     caller sees one exception and a still-usable object. *)
  let abort_start e =
    List.iter Ev.close !evs;
    List.iter
      (fun (fd, addr) ->
        close_quietly fd;
        match addr with
        | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
        | Tcp _ -> ())
      !record;
    t.listeners <- [];
    t.loops <- [||];
    Mutex.lock t.state_m;
    t.started <- false;
    Mutex.unlock t.state_m;
    raise e
  in
  (try
     List.iter
       (fun addr ->
         match addr with
         | Unix_sock path ->
           let fd = bind_unix path in
           shared := fd :: !shared;
           record := (fd, addr) :: !record
         | Tcp (host, port) ->
           if shards = 1 then begin
             let fd = bind_tcp ~reuseport:false host port in
             shared := fd :: !shared;
             record := (fd, addr) :: !record
           end
           else begin
             match bind_tcp ~reuseport:true host port with
             | fd0 ->
               dedicated.(0) <- fd0 :: dedicated.(0);
               record := (fd0, addr) :: !record;
               for i = 1 to shards - 1 do
                 let fd = bind_tcp ~reuseport:true host port in
                 dedicated.(i) <- fd :: dedicated.(i);
                 record := (fd, addr) :: !record
               done
             | exception Unix.Unix_error _ ->
               let fd = bind_tcp ~reuseport:false host port in
               shared := fd :: !shared;
               record := (fd, addr) :: !record
           end)
       addrs
   with e -> abort_start e);
  t.listeners <- List.rev !record;
  (try
     t.loops <-
       Array.init shards (fun i ->
           let ev = Ev.create () in
           evs := ev :: !evs;
           let lfds = !shared @ dedicated.(i) in
           List.iter (fun fd -> Ev.add ev fd ~read:true ~write:false) lfds;
           {
             l_id = i;
             l_ev = ev;
             l_listeners = lfds;
             l_conns = Hashtbl.create 64;
             l_m = Mutex.create ();
             l_compl = [];
             l_exec = [];
             l_draining = false;
             l_scratch = Bytes.create 65536;
           })
   with e -> abort_start e);
  let loop_threads =
    Array.to_list
      (Array.map (fun l -> Thread.create (fun () -> loop_run t l) ()) t.loops)
  in
  t.coordinator <- Some (Thread.create (fun () -> coordinator_run t loop_threads) ())

let wait t =
  match t.coordinator with
  | None -> ()
  | Some th ->
    Mutex.lock t.state_m;
    while not t.stopped do
      Condition.wait t.state_cv t.state_m
    done;
    Mutex.unlock t.state_m;
    (try Thread.join th with _ -> ())

let stop t =
  match t.coordinator with
  | None ->
    (* Never started: there is nothing to drain, but the pool still owns
       worker domains. *)
    request_stop t;
    Pool.shutdown t.pool
  | Some _ ->
    request_stop t;
    wait t
