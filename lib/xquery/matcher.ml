module Labeled = Xindex.Labeled
module Pager = Xstorage.Pager
module Bs = Xutil.Binsearch

type mode = Constraint | Naive

type stats = {
  mutable probes : int;
  mutable seek_probes : int;
  mutable scan_probes : int;
  mutable prefix_probes : int;
  mutable doc_probes : int;
  mutable candidates : int;
  mutable rejected : int;
  mutable matches : int;
}

let create_stats () =
  {
    probes = 0;
    seek_probes = 0;
    scan_probes = 0;
    prefix_probes = 0;
    doc_probes = 0;
    candidates = 0;
    rejected = 0;
    matches = 0;
  }

let probe_split s =
  [
    ("seek", s.seek_probes);
    ("scan", s.scan_probes);
    ("prefix", s.prefix_probes);
    ("doc", s.doc_probes);
  ]

let merge_stats ~into s =
  into.probes <- into.probes + s.probes;
  into.seek_probes <- into.seek_probes + s.seek_probes;
  into.scan_probes <- into.scan_probes + s.scan_probes;
  into.prefix_probes <- into.prefix_probes + s.prefix_probes;
  into.doc_probes <- into.doc_probes + s.doc_probes;
  into.candidates <- into.candidates + s.candidates;
  into.rejected <- into.rejected + s.rejected;
  into.matches <- into.matches + s.matches

(* Per level [i < n], the later level with the shortest link (ties to the
   lower level), or -1 for the last. *)
let rarest lens n =
  let r = Array.make n (-1) in
  for i = n - 2 downto 0 do
    let j = r.(i + 1) in
    r.(i) <- (if j < 0 || lens.(i + 1) <= lens.(j) then i + 1 else j)
  done;
  r

let lookahead idx (q : Query_seq.compiled) =
  let lens =
    Array.map
      (fun p ->
        match Labeled.link idx p with
        | Some l -> Labeled.link_length l
        | None -> 0)
      q.paths
  in
  rarest lens (Array.length lens)

let run ?(mode = Constraint) ?pager ?stats idx (q : Query_seq.compiled) ~on_doc
    =
  (* A fresh sink per call when the caller does not supply one: a shared
     mutable default would be a data race once queries run on several
     domains. *)
  let stats = match stats with Some s -> s | None -> create_stats () in
  let qlen = Array.length q.paths in
  assert (qlen > 0);
  let links = Array.map (Labeled.link idx) q.paths in
  if Array.for_all Option.is_some links then begin
    let links = Array.map Option.get links in
    (* Every entry read is charged: one probe, one pager touch.  The
       split says which part of the search paid for it. *)
    let charge base i =
      stats.probes <- stats.probes + 1;
      match pager with
      | Some p -> Pager.touch p (base + (i * Labeled.entry_bytes))
      | None -> ()
    in
    let seek_touch l i =
      stats.seek_probes <- stats.seek_probes + 1;
      charge (Labeled.link_base l) i
    in
    let scan_touch l i =
      stats.scan_probes <- stats.scan_probes + 1;
      charge (Labeled.link_base l) i
    in
    let prefix_touch l i =
      stats.prefix_probes <- stats.prefix_probes + 1;
      charge (Labeled.link_base l) i
    in
    let doc_base = Labeled.doc_table_base idx and dlen = Labeled.doc_len idx in
    (* Sorted key columns by level: level [i < qlen] is the link of
       sequence element [i], level [qlen] the document table.  Their
       instrumented readers are built once per run, so that a search
       allocates nothing. *)
    let lens = Array.append (Array.map Labeled.link_length links) [| dlen |] in
    let key_at i p =
      if i = qlen then Labeled.doc_pre_at idx p else Labeled.link_pre links.(i) p
    in
    let seek_get =
      Array.append
        (Array.map
           (fun l i ->
             seek_touch l i;
             Labeled.link_pre l i)
           links)
        [|
          (fun i ->
            stats.doc_probes <- stats.doc_probes + 1;
            charge doc_base i;
            Labeled.doc_pre_at idx i);
        |]
    in
    (* Per level, the pattern parent's link, read by the forward-prefix
       check (a level without a parent never uses its entry). *)
    let prefix_get =
      Array.map
        (fun pi ->
          let pl = links.(max pi 0) in
          fun i ->
            prefix_touch pl i;
            Labeled.link_pre pl i)
        q.parents
    in
    let rare = rarest lens qlen in
    (* Two fingers per level, each a key and the first position whose key
       reaches it, that entry already charged ([max_int]: none yet):
       [low] from the level's last seek, [high] from the end of its
       latest scan or document span, moved on by any seek that passes
       it.  A seek starts from the higher finger its key has reached: it
       reuses that entry when the entry reaches the key, gallops on from
       it otherwise, and searches cold when the key is below both (a
       parent nested in an earlier one). *)
    let low_key = Array.make (qlen + 1) max_int
    and low_pos = Array.make (qlen + 1) 0 in
    let high_key = Array.make (qlen + 1) max_int
    and high_pos = Array.make (qlen + 1) 0 in
    let set_high i x p =
      high_key.(i) <- x;
      high_pos.(i) <- p
    in
    let seek i x =
      let len = lens.(i) in
      let f =
        if x >= high_key.(i) then high_pos.(i)
        else if x >= low_key.(i) then low_pos.(i)
        else -1
      in
      let p =
        if f < 0 then Bs.gallop_by ~get:seek_get.(i) ~len ~from:0 x
        else if f < len && key_at i f >= x then f
        else Bs.gallop_by ~get:seek_get.(i) ~len ~from:(f + 1) x
      in
      low_key.(i) <- x;
      low_pos.(i) <- p;
      if x >= high_key.(i) || high_key.(i) = max_int then set_high i x p;
      p
    in
    (* Key of a seek's answer [n] on level [i] (charged by the seek), or
       [max_int] when the level ran out. *)
    let first_key i n = if n < lens.(i) then key_at i n else max_int in
    (* A complete match on a node with serial range [lo, hi] reports the
       documents whose sequence ends inside it. *)
    let report lo hi =
      stats.matches <- stats.matches + 1;
      let first = seek qlen lo in
      (* [first] is charged already: reuse its key. *)
      let last =
        if first < dlen && key_at qlen first <= hi then
          Bs.gallop_by ~get:seek_get.(qlen) ~len:dlen ~from:(first + 1) (hi + 1)
          - 1
        else first - 1
      in
      set_high qlen (hi + 1) (last + 1);
      if first <= last then begin
        (match pager with
         | Some p ->
           (* Result fetch scans the located span: half-open byte range
              over entries [first, last]. *)
           Pager.touch_range p
             (doc_base + (first * Labeled.entry_bytes))
             (doc_base + ((last + 1) * Labeled.entry_bytes))
         | None -> ());
        Labeled.docs_between idx ~first ~last ~f:on_doc
      end
    in
    let mpos = Array.make qlen (-1) in
    (* Candidates for level [i]: entries of its link from position
       [first] (a seek's answer, already charged) while [pre <= hi]. *)
    let rec search i first hi =
      let l = links.(i) and stop = lens.(i) in
      let last_level = i + 1 = qlen in
      let pi = q.parents.(i) in
      let ppos = if pi >= 0 then mpos.(pi) else -1 in
      (* Whether the parent's entry embeds identical siblings — only then
         can the forward-prefix relation break (Algorithm 1's ins set).
         It depends on the parent alone: decided on the first candidate,
         kept for the rest.  0 = undecided, 1 = check, 2 = skip check. *)
      let ins = ref (if mode = Naive || pi < 0 then 2 else 0) in
      (* Upper-bound finger into the parent's link for the prefix check:
         candidates arrive in [pre] order, so it only moves forward. *)
      let pcur = ref (ppos + 1) in
      let pos = ref first and rest_dead = ref false in
      while (not !rest_dead) && !pos < stop && Labeled.link_pre l !pos <= hi do
        let p = !pos in
        let pre = Labeled.link_pre l p and post = Labeled.link_post l p in
        stats.candidates <- stats.candidates + 1;
        (* Every later level of a complete match lies inside [(pre, post]].
           So first the rarest later level's first entry past [pre], at
           serial [p1]: a candidate whose range ends before [p1] is dead.
           Only a candidate that passes pays for the next level's seek,
           which may kill it the same way.  The last level never has a
           dead candidate: every trie node's range holds the end of some
           document's sequence. *)
        let next = ref 0 and p1 = ref pre in
        if not last_level then begin
          let r = rare.(i) in
          next := seek r (pre + 1);
          p1 := first_key r !next;
          if r <> i + 1 && !p1 <= post then begin
            next := seek (i + 1) (pre + 1);
            p1 := first_key (i + 1) !next
          end
        end;
        let p1 = !p1 in
        if p1 > post then begin
          (* The killing level's first entry past any later candidate's
             [pre] is at or after [p1], so every candidate up to [p1]
             that does not contain it is dead too. *)
          if p1 > hi then rest_dead := true
          else begin
            (* Gallop to [p1]; the entries before it that contain [p1]
               are ancestors of its floor, so climb [up] from the floor
               to the outermost one past [p].  Containment holds all the
               way up once it holds, so only that one is tested.  On a
               link whose entries never nest, the climb is the floor
               alone. *)
            let j = Bs.gallop_by ~get:seek_get.(i) ~len:stop ~from:(p + 1) p1 in
            let k = ref (j - 1) and outer = ref (-1) in
            while !k > p do
              seek_touch l !k;
              outer := !k;
              k := Labeled.link_up l !k
            done;
            pos :=
              if !outer >= 0 && Labeled.link_post l !outer >= p1 then !outer
              else j
          end
        end
        else begin
          let ok =
            !ins = 2
            ||
            let pl = links.(pi) in
            if !ins = 0 then begin
              prefix_touch pl ppos;
              if ppos + 1 < lens.(pi) then prefix_touch pl (ppos + 1);
              ins := if Labeled.link_same_desc pl ppos then 1 else 2
            end;
            !ins = 2
            ||
            (* Forward prefix: the deepest [pl] entry containing [pre] must
               be [ppos].  Climb [up] from the floor; [ppos] contains
               [pre], so the chain reaches it unless a deeper entry
               contains [pre] first. *)
            let ub =
              Bs.gallop_by ~get:prefix_get.(i) ~len:lens.(pi) ~from:!pcur
                (pre + 1)
            in
            pcur := ub;
            let k = ref (ub - 1) and verdict = ref 0 in
            while !verdict = 0 do
              if !k <= ppos then verdict := if !k = ppos then 1 else 2
              else begin
                prefix_touch pl !k;
                if Labeled.link_post pl !k >= pre then verdict := 2
                else k := Labeled.link_up pl !k
              end
            done;
            !verdict = 1
          in
          if ok then begin
            mpos.(i) <- p;
            if last_level then report pre post else search (i + 1) !next post
          end
          else stats.rejected <- stats.rejected + 1;
          pos := p + 1;
          if p + 1 < stop then scan_touch l (p + 1)
        end
      done;
      (* A scan that ran to its end found where [hi + 1] starts. *)
      if not !rest_dead then set_high i (hi + 1) !pos
    in
    search 0 (seek 0 1) (Labeled.root_post idx)
  end

let run_collect ?mode ?pager ?stats idx compiled_list =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun q ->
      run ?mode ?pager ?stats idx q ~on_doc:(fun d ->
          if not (Hashtbl.mem seen d) then Hashtbl.replace seen d ()))
    compiled_list;
  List.sort Stdlib.compare (Hashtbl.fold (fun d () acc -> d :: acc) seen [])
