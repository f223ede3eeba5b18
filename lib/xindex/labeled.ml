module Path = Sequencing.Path
module Ivec = Xutil.Ivec
module Bs = Xutil.Binsearch
module Store = Xstorage.Store

let entry_bytes = 8
let page_bytes = 4096

type backend = Heap_arrays | Columnar

(* The index is a set of flat columns (structure of arrays): per-node
   label columns, the concatenated link entry columns, the document
   table, and a small in-memory link directory of offsets into them.
   Columns are Store handles, so the very same view serves heap arrays,
   unboxed flat buffers, and disk pages behind the buffer pool. *)
type t = {
  n : int; (* nodes excluding virtual root *)
  pre : Store.column; (* node id -> serial *)
  post : Store.column;
  node_path : Store.column; (* node id -> dictionary index *)
  paths : Path.t array; (* dictionary: index -> interned path, depth order *)
  dir : (Path.t, int) Hashtbl.t; (* path -> link slot *)
  link_path : int array; (* slot -> dictionary index *)
  link_off : int array; (* slot -> first entry position in l_* columns *)
  link_len : int array;
  link_base : int array; (* slot -> byte offset in the simulated layout *)
  l_pre : Store.column; (* concatenated link entries, slot-major *)
  l_post : Store.column;
  l_up : Store.column;
  l_node : Store.column;
  doc_pre : Store.column; (* sorted *)
  doc_id : Store.column;
  doc_base : int;
  total_bytes : int;
  multi : bool array;
      (* Per-slot "some document carries this path twice" flags.  Computed
         eagerly at construction (one linear scan per link) so the frozen
         index is strictly read-only afterwards — query compilation probes
         this table from several domains at once. *)
  source : Store.t option; (* the open snapshot, for paged indexes *)
}

type link = {
  k_pre : Store.column;
  k_post : Store.column;
  k_up : Store.column;
  loff : int;
  llen : int;
  lbase : int;
}

(* Link entries are in pre-order, so an entry has a same-encoding
   descendant iff the immediately following entry falls inside its
   range; a link is "multiple" iff any entry does. *)
let has_nested pres posts off len =
  let rec scan i =
    i + 1 < len && (pres.(off + i + 1) <= posts.(off + i) || scan (i + 1))
  in
  scan 0

(* Path dictionary: every path appearing anywhere is a trie-node path and
   the trie is prefix-closed, so the node paths cover the dictionary.
   Depth-then-id order guarantees parents precede children. *)
let build_dict node_paths =
  let seen = Hashtbl.create 256 in
  Array.iter (fun p -> Hashtbl.replace seen p ()) node_paths;
  let ordered =
    List.sort
      (fun a b ->
        match Stdlib.compare (Path.depth a) (Path.depth b) with
        | 0 -> Path.compare a b
        | c -> c)
      (Hashtbl.fold (fun p () acc -> p :: acc) seen [])
  in
  let paths = Array.of_list ordered in
  let index_of = Hashtbl.create (Array.length paths) in
  Array.iteri (fun i p -> Hashtbl.replace index_of p i) paths;
  (paths, index_of)

let freeze backend a =
  match backend with
  | Heap_arrays -> Store.heap a
  | Columnar -> Store.flat_of_array a

(* Mutable link accumulator used during the DFS. *)
type accum = {
  apath : Path.t;
  apres : Ivec.t;
  aposts : Ivec.t;
  aups : Ivec.t;
  anodes : Ivec.t;
}

let of_trie ?(backend = Columnar) trie =
  let nnodes = Trie.node_count trie + 1 in
  (* Adjacency: children of each node, sorted by path id for a
     deterministic labelling. *)
  let children = Array.make nnodes [] in
  Trie.iter_edges trie (fun parent child ->
      children.(parent) <- child :: children.(parent));
  Array.iteri
    (fun i kids ->
      children.(i) <-
        List.sort
          (fun a b -> Path.compare (Trie.path_of trie a) (Trie.path_of trie b))
          kids)
    children;
  let pre = Array.make nnodes 0 in
  let post = Array.make nnodes 0 in
  let node_paths = Array.make nnodes Path.epsilon in
  let accums : (Path.t, accum) Hashtbl.t = Hashtbl.create 1024 in
  let stacks : (Path.t, int list ref) Hashtbl.t = Hashtbl.create 1024 in
  let accum_of p =
    match Hashtbl.find_opt accums p with
    | Some a -> a
    | None ->
      let a =
        {
          apath = p;
          apres = Ivec.create ();
          aposts = Ivec.create ();
          aups = Ivec.create ();
          anodes = Ivec.create ();
        }
      in
      Hashtbl.replace accums p a;
      a
  in
  let stack_of p =
    match Hashtbl.find_opt stacks p with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks p s;
      s
  in
  let counter = ref 0 in
  (* Iterative DFS with enter/exit events.  Exit frames carry the link
     position to backfill the post label. *)
  let stack = Stack.create () in
  Stack.push (`Enter 0) stack;
  while not (Stack.is_empty stack) do
    match Stack.pop stack with
    | `Enter node ->
      let serial = !counter in
      incr counter;
      pre.(node) <- serial;
      let p = Trie.path_of trie node in
      node_paths.(node) <- p;
      let link_pos =
        if node = 0 then -1
        else begin
          let a = accum_of p in
          let s = stack_of p in
          let up = match !s with [] -> -1 | top :: _ -> top in
          let pos = Ivec.length a.apres in
          Ivec.push a.apres serial;
          Ivec.push a.aposts 0;
          Ivec.push a.aups up;
          Ivec.push a.anodes node;
          s := pos :: !s;
          pos
        end
      in
      Stack.push (`Exit (node, link_pos)) stack;
      (* Push children reversed so the smallest path id is visited first. *)
      List.iter (fun c -> Stack.push (`Enter c) stack) (List.rev children.(node))
    | `Exit (node, link_pos) ->
      let last = !counter - 1 in
      post.(node) <- last;
      if node <> 0 then begin
        let p = node_paths.(node) in
        let a = accum_of p in
        Ivec.set a.aposts link_pos last;
        let s = stack_of p in
        (match !s with
         | _ :: rest -> s := rest
         | [] -> assert false)
      end
  done;
  (* Freeze links into the columnar layout: concatenated entry columns in
     deterministic path order, page-aligned byte bases per link (the
     paper's cost-model layout, one 8-byte unit per entry). *)
  let next_base = ref 0 in
  let alloc bytes =
    let base = !next_base in
    let pages = (max 1 bytes + page_bytes - 1) / page_bytes in
    next_base := base + (pages * page_bytes);
    base
  in
  let ordered =
    List.sort
      (fun a b -> Path.compare a.apath b.apath)
      (Hashtbl.fold (fun _ a acc -> a :: acc) accums [])
  in
  let nlinks = List.length ordered in
  let total_entries = nnodes - 1 in
  let l_pre = Array.make total_entries 0 in
  let l_post = Array.make total_entries 0 in
  let l_up = Array.make total_entries 0 in
  let l_node = Array.make total_entries 0 in
  let link_off = Array.make nlinks 0 in
  let link_len = Array.make nlinks 0 in
  let link_base = Array.make nlinks 0 in
  let link_path_t = Array.make nlinks Path.epsilon in
  let off = ref 0 in
  List.iteri
    (fun slot a ->
      let len = Ivec.length a.apres in
      link_off.(slot) <- !off;
      link_len.(slot) <- len;
      link_base.(slot) <- alloc (len * entry_bytes);
      link_path_t.(slot) <- a.apath;
      for i = 0 to len - 1 do
        l_pre.(!off + i) <- Ivec.get a.apres i;
        l_post.(!off + i) <- Ivec.get a.aposts i;
        l_up.(!off + i) <- Ivec.get a.aups i;
        l_node.(!off + i) <- Ivec.get a.anodes i
      done;
      off := !off + len)
    ordered;
  let dir = Hashtbl.create nlinks in
  Array.iteri (fun slot p -> Hashtbl.replace dir p slot) link_path_t;
  let multi =
    Array.init nlinks (fun slot ->
        has_nested l_pre l_post link_off.(slot) link_len.(slot))
  in
  (* Document table sorted by end-node serial. *)
  let entries = Trie.doc_entries trie in
  let pairs = Array.map (fun (node, doc) -> (pre.(node), doc)) entries in
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) pairs;
  let doc_pre = Array.map fst pairs in
  let doc_id = Array.map snd pairs in
  let doc_base = alloc (Array.length doc_pre * entry_bytes) in
  (* Dictionary and id-valued node-path column. *)
  let paths, index_of = build_dict node_paths in
  let node_path = Array.map (fun p -> Hashtbl.find index_of p) node_paths in
  let link_path = Array.map (fun p -> Hashtbl.find index_of p) link_path_t in
  let fz = freeze backend in
  {
    n = nnodes - 1;
    pre = fz pre;
    post = fz post;
    node_path = fz node_path;
    paths;
    dir;
    link_path;
    link_off;
    link_len;
    link_base;
    l_pre = fz l_pre;
    l_post = fz l_post;
    l_up = fz l_up;
    l_node = fz l_node;
    doc_pre = fz doc_pre;
    doc_id = fz doc_id;
    doc_base;
    total_bytes = !next_base;
    multi;
    source = None;
  }

let node_count t = t.n
let doc_count t = Store.length t.doc_id
let root_pre t = Store.get t.pre 0
let root_post t = Store.get t.post 0

let size_bytes t ~record_count = (4 * record_count) + (8 * t.n)

let link t p =
  match Hashtbl.find_opt t.dir p with
  | None -> None
  | Some slot ->
    Some
      {
        k_pre = t.l_pre;
        k_post = t.l_post;
        k_up = t.l_up;
        loff = t.link_off.(slot);
        llen = t.link_len.(slot);
        lbase = t.link_base.(slot);
      }

let link_length l = l.llen
let link_pre l i = Store.get l.k_pre (l.loff + i)
let link_post l i = Store.get l.k_post (l.loff + i)
let link_up l i = Store.get l.k_up (l.loff + i)
let link_base l = l.lbase

let link_floor l x = Bs.floor_index_by ~get:(fun i -> link_pre l i) ~len:l.llen x

(* Link entries are in pre-order, so an entry has a same-encoding
   descendant iff the immediately following entry falls inside its range. *)
let link_same_desc l i = i + 1 < l.llen && link_pre l (i + 1) <= link_post l i

(* Deepest same-encoding ancestor of serial [x]: start from the floor
   entry and climb [up] pointers until the range contains [x]. *)
let nearest_in_link l x =
  let rec climb i =
    if i < 0 then -1 else if link_post l i >= x then i else climb (link_up l i)
  in
  climb (link_floor l x)

let doc_len t = Store.length t.doc_pre
let doc_pre_at t i = Store.get t.doc_pre i
let doc_id_at t i = Store.get t.doc_id i

let doc_span t ~lo ~hi =
  let len = doc_len t in
  let get i = doc_pre_at t i in
  let first = Bs.lower_bound_by ~get ~len lo in
  let last = Bs.upper_bound_by ~get ~len hi - 1 in
  (first, last)

let docs_between t ~first ~last ~f =
  for i = first to last do
    f (doc_id_at t i)
  done

let docs_in_range t ~lo ~hi ~f =
  let first, last = doc_span t ~lo ~hi in
  docs_between t ~first ~last ~f

let doc_table_base t = t.doc_base
let layout_bytes t = t.total_bytes

let path_multiple t p =
  match Hashtbl.find_opt t.dir p with Some slot -> t.multi.(slot) | None -> false

let pre_of_node t id = Store.get t.pre id
let post_of_node t id = Store.get t.post id
let path_of_node t id = t.paths.(Store.get t.node_path id)
let distinct_paths t = Array.length t.link_off
let backing_store t = t.source

(* Rebuild the same index over a different column backend — used by the
   storage benchmarks and the backend-equivalence oracle tests. *)
let remap ?(backend = Columnar) t =
  let fz c = freeze backend (Store.to_array c) in
  {
    t with
    pre = fz t.pre;
    post = fz t.post;
    node_path = fz t.node_path;
    l_pre = fz t.l_pre;
    l_post = fz t.l_post;
    l_up = fz t.l_up;
    l_node = fz t.l_node;
    doc_pre = fz t.doc_pre;
    doc_id = fz t.doc_id;
    source = None;
  }

(* --- snapshot regions ---------------------------------------------------- *)

(* Region names in the columnar snapshot (see Xstorage.Store for the file
   format).  The dictionary spells each path out (kind + name + parent
   entry) so a snapshot re-interns cleanly in any process. *)

let dict_regions t store =
  let names = Buffer.create 1024 in
  let n = Array.length t.paths in
  let parent = Array.make n (-1) in
  let kind = Array.make n 0 in
  let name_off = Array.make (n + 1) 0 in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i p -> Hashtbl.replace index_of p i) t.paths;
  Array.iteri
    (fun i p ->
      name_off.(i) <- Buffer.length names;
      if not (Path.equal p Path.epsilon) then begin
        let d = Path.tag p in
        parent.(i) <- Hashtbl.find index_of (Path.parent p);
        kind.(i) <- (if Xmlcore.Designator.is_value d then 1 else 0);
        Buffer.add_string names (Xmlcore.Designator.name d)
      end)
    t.paths;
  name_off.(n) <- Buffer.length names;
  Store.add_ints store "dict_parent" (Store.heap parent);
  Store.add_ints store "dict_kind" (Store.heap kind);
  Store.add_ints store "dict_name_off" (Store.heap name_off);
  Store.add_blob store "dict_names" (Buffer.contents names)

(* Compact dictionary: trie edges are (parent entry, designator id); the
   designators themselves are deduplicated into a (kind, name) table
   whose names — sorted, hence prefix-heavy — are front-coded.  A DBLP
   trie has thousands of edges over a few dozen distinct tags, so the
   edge cost drops from one spelled-out name per entry to one small
   id. *)
let dict_regions_compact t store =
  let n = Array.length t.paths in
  let parent = Array.make n (-1) in
  let desig = Array.make n (-1) in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i p -> Hashtbl.replace index_of p i) t.paths;
  let uniq = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      if not (Path.equal p Path.epsilon) then begin
        let d = Path.tag p in
        let k = if Xmlcore.Designator.is_value d then 1 else 0 in
        Hashtbl.replace uniq (Xmlcore.Designator.name d, k) ()
      end)
    t.paths;
  let pairs =
    List.sort Stdlib.compare (Hashtbl.fold (fun kv () acc -> kv :: acc) uniq [])
  in
  let id_of = Hashtbl.create (List.length pairs) in
  List.iteri (fun i kv -> Hashtbl.replace id_of kv i) pairs;
  Array.iteri
    (fun i p ->
      if not (Path.equal p Path.epsilon) then begin
        let d = Path.tag p in
        let k = if Xmlcore.Designator.is_value d then 1 else 0 in
        parent.(i) <- Hashtbl.find index_of (Path.parent p);
        desig.(i) <- Hashtbl.find id_of (Xmlcore.Designator.name d, k)
      end)
    t.paths;
  Store.add_ints store "dict_parent" (Store.heap parent);
  Store.add_ints store "dict_desig" (Store.heap desig);
  Store.add_ints store "desig_kind"
    (Store.heap (Array.of_list (List.map snd pairs)));
  Store.add_blob store "desig_names"
    (Xsuccinct.Frontcode.encode (Array.of_list (List.map fst pairs)))

let add_to_store ?(compact = false) t store =
  Store.add_ints store "meta"
    (Store.heap [| t.n; t.doc_base; t.total_bytes |]);
  (if compact then dict_regions_compact else dict_regions) t store;
  Store.add_ints store "node_pre" t.pre;
  Store.add_ints store "node_post" t.post;
  Store.add_ints store "node_path" t.node_path;
  Store.add_ints store "link_path" (Store.heap t.link_path);
  Store.add_ints store "link_off" (Store.heap t.link_off);
  Store.add_ints store "link_len" (Store.heap t.link_len);
  Store.add_ints store "link_base" (Store.heap t.link_base);
  Store.add_ints store "link_multi"
    (Store.heap (Array.map (fun b -> if b then 1 else 0) t.multi));
  Store.add_ints store "l_pre" t.l_pre;
  Store.add_ints store "l_post" t.l_post;
  Store.add_ints store "l_up" t.l_up;
  Store.add_ints store "l_node" t.l_node;
  Store.add_ints store "doc_pre" t.doc_pre;
  Store.add_ints store "doc_id" t.doc_id

let corrupt msg = invalid_arg ("Labeled.of_store: inconsistent snapshot: " ^ msg)

let of_store store =
  let meta = Store.to_array (Store.ints store "meta") in
  if Array.length meta <> 3 then corrupt "meta region size";
  let n = meta.(0) and doc_base = meta.(1) and total_bytes = meta.(2) in
  if n < 0 || doc_base < 0 || total_bytes < 0 then corrupt "negative meta field";
  (* Re-intern the dictionary (parents precede children by construction).
     Compact (xseqcol2) snapshots carry deduplicated designator ids over
     a front-coded name table; legacy snapshots spell each entry out. *)
  let parent = Store.to_array (Store.ints store "dict_parent") in
  let ndict = Array.length parent in
  let paths = Array.make (max 1 ndict) Path.epsilon in
  if Store.mem store "dict_desig" then begin
    let desig = Store.to_array (Store.ints store "dict_desig") in
    let dkind = Store.to_array (Store.ints store "desig_kind") in
    let dnames =
      try
        Xsuccinct.Frontcode.decode
          ~name:"Labeled.of_store: inconsistent snapshot: designator names"
          (Store.blob store "desig_names")
      with Invalid_argument _ -> corrupt "designator name table"
    in
    let ndesig = Array.length dnames in
    if Array.length desig <> ndict || Array.length dkind <> ndesig then
      corrupt "dictionary region sizes";
    let desigs =
      Array.init ndesig (fun i ->
          if dkind.(i) = 1 then Xmlcore.Designator.value dnames.(i)
          else if dkind.(i) = 0 then Xmlcore.Designator.tag dnames.(i)
          else corrupt "designator kind out of range")
    in
    for i = 0 to ndict - 1 do
      if parent.(i) < 0 then begin
        if desig.(i) >= 0 then corrupt "root entry with a designator";
        paths.(i) <- Path.epsilon
      end
      else begin
        if parent.(i) >= i then corrupt "dictionary parent order";
        if desig.(i) < 0 || desig.(i) >= ndesig then
          corrupt "designator id out of range";
        paths.(i) <- Path.child paths.(parent.(i)) desigs.(desig.(i))
      end
    done
  end
  else begin
    let kind = Store.to_array (Store.ints store "dict_kind") in
    let name_off = Store.to_array (Store.ints store "dict_name_off") in
    let names = Store.blob store "dict_names" in
    if Array.length kind <> ndict || Array.length name_off <> ndict + 1 then
      corrupt "dictionary region sizes";
    for i = 0 to ndict - 1 do
      let lo = name_off.(i) and hi = name_off.(i + 1) in
      if lo < 0 || hi < lo || hi > String.length names then
        corrupt "dictionary name offsets";
      if parent.(i) < 0 then paths.(i) <- Path.epsilon
      else begin
        if parent.(i) >= i then corrupt "dictionary parent order";
        let name = String.sub names lo (hi - lo) in
        let d =
          if kind.(i) = 1 then Xmlcore.Designator.value name
          else Xmlcore.Designator.tag name
        in
        paths.(i) <- Path.child paths.(parent.(i)) d
      end
    done
  end;
  let paths = Array.sub paths 0 ndict in
  let pre = Store.ints store "node_pre" in
  let post = Store.ints store "node_post" in
  let node_path = Store.ints store "node_path" in
  if Store.length pre <> n + 1 || Store.length post <> n + 1
     || Store.length node_path <> n + 1
  then corrupt "node column sizes";
  let link_path = Store.to_array (Store.ints store "link_path") in
  let link_off = Store.to_array (Store.ints store "link_off") in
  let link_len = Store.to_array (Store.ints store "link_len") in
  let link_base = Store.to_array (Store.ints store "link_base") in
  let link_multi = Store.to_array (Store.ints store "link_multi") in
  let nlinks = Array.length link_path in
  if
    Array.length link_off <> nlinks
    || Array.length link_len <> nlinks
    || Array.length link_base <> nlinks
    || Array.length link_multi <> nlinks
  then corrupt "link directory sizes";
  let l_pre = Store.ints store "l_pre" in
  let l_post = Store.ints store "l_post" in
  let l_up = Store.ints store "l_up" in
  let l_node = Store.ints store "l_node" in
  let total_entries = Store.length l_pre in
  if
    Store.length l_post <> total_entries
    || Store.length l_up <> total_entries
    || Store.length l_node <> total_entries
  then corrupt "link column sizes";
  let dir = Hashtbl.create nlinks in
  for slot = 0 to nlinks - 1 do
    if link_path.(slot) < 0 || link_path.(slot) >= ndict then
      corrupt "link path id out of range";
    if
      link_off.(slot) < 0 || link_len.(slot) < 0
      || link_off.(slot) + link_len.(slot) > total_entries
    then corrupt "link slice out of range";
    Hashtbl.replace dir paths.(link_path.(slot)) slot
  done;
  let doc_pre = Store.ints store "doc_pre" in
  let doc_id = Store.ints store "doc_id" in
  if Store.length doc_pre <> Store.length doc_id then corrupt "doc table sizes";
  for id = 0 to n do
    let pid = Store.get node_path id in
    if pid < 0 || pid >= ndict then corrupt "node path id out of range"
  done;
  {
    n;
    pre;
    post;
    node_path;
    paths;
    dir;
    link_path;
    link_off;
    link_len;
    link_base;
    l_pre;
    l_post;
    l_up;
    l_node;
    doc_pre;
    doc_id;
    doc_base;
    total_bytes;
    multi = Array.map (fun x -> x <> 0) link_multi;
    source = Some store;
  }

(* --- portability -------------------------------------------------------- *)

(* Paths are referenced through a dictionary whose entries spell out the
   designator (kind + source string) and point at their parent entry, in
   depth order so parents precede children.  Entry 0 is epsilon. *)
type dict_entry = { dparent : int; dkind : char; dname : string }

type portable_link = {
  s_path : int; (* dictionary index *)
  s_pres : int array;
  s_posts : int array;
  s_ups : int array;
  s_nodes : int array;
  s_base : int;
}

type portable = {
  s_version : int;
  s_dict : dict_entry array;
  s_n : int;
  s_pre : int array;
  s_post : int array;
  s_node_paths : int array; (* dictionary indexes *)
  s_links : portable_link array;
  s_doc_pres : int array;
  s_doc_ids : int array;
  s_doc_base : int;
  s_total_bytes : int;
}

let to_portable t =
  let index_of = Hashtbl.create (Array.length t.paths) in
  Array.iteri (fun i p -> Hashtbl.replace index_of p i) t.paths;
  let dict =
    Array.map
      (fun p ->
        if Path.equal p Path.epsilon then { dparent = -1; dkind = 'T'; dname = "" }
        else begin
          let d = Path.tag p in
          {
            dparent = Hashtbl.find index_of (Path.parent p);
            dkind = (if Xmlcore.Designator.is_value d then 'V' else 'T');
            dname = Xmlcore.Designator.name d;
          }
        end)
      t.paths
  in
  let slice col off len = Array.init len (fun i -> Store.get col (off + i)) in
  let links =
    List.sort
      (fun a b -> Stdlib.compare a.s_path b.s_path)
      (List.init (Array.length t.link_off) (fun slot ->
           {
             s_path = t.link_path.(slot);
             s_pres = slice t.l_pre t.link_off.(slot) t.link_len.(slot);
             s_posts = slice t.l_post t.link_off.(slot) t.link_len.(slot);
             s_ups = slice t.l_up t.link_off.(slot) t.link_len.(slot);
             s_nodes = slice t.l_node t.link_off.(slot) t.link_len.(slot);
             s_base = t.link_base.(slot);
           }))
  in
  {
    s_version = 1;
    s_dict = dict;
    s_n = t.n;
    s_pre = Store.to_array t.pre;
    s_post = Store.to_array t.post;
    s_node_paths = Store.to_array t.node_path;
    s_links = Array.of_list links;
    s_doc_pres = Store.to_array t.doc_pre;
    s_doc_ids = Store.to_array t.doc_id;
    s_doc_base = t.doc_base;
    s_total_bytes = t.total_bytes;
  }

let of_portable ?(backend = Columnar) s =
  if s.s_version <> 1 then invalid_arg "Labeled.of_portable: unknown version";
  (* Re-intern the dictionary (parents precede children by construction). *)
  let paths = Array.make (max 1 (Array.length s.s_dict)) Path.epsilon in
  Array.iteri
    (fun i e ->
      if e.dparent < 0 then paths.(i) <- Path.epsilon
      else begin
        let d =
          if e.dkind = 'V' then Xmlcore.Designator.value e.dname
          else Xmlcore.Designator.tag e.dname
        in
        paths.(i) <- Path.child paths.(e.dparent) d
      end)
    s.s_dict;
  let paths = Array.sub paths 0 (Array.length s.s_dict) in
  let nlinks = Array.length s.s_links in
  let total_entries = Array.fold_left (fun a l -> a + Array.length l.s_pres) 0 s.s_links in
  let l_pre = Array.make total_entries 0 in
  let l_post = Array.make total_entries 0 in
  let l_up = Array.make total_entries 0 in
  let l_node = Array.make total_entries 0 in
  let link_path = Array.make nlinks 0 in
  let link_off = Array.make nlinks 0 in
  let link_len = Array.make nlinks 0 in
  let link_base = Array.make nlinks 0 in
  let dir = Hashtbl.create nlinks in
  let off = ref 0 in
  Array.iteri
    (fun slot l ->
      let len = Array.length l.s_pres in
      link_path.(slot) <- l.s_path;
      link_off.(slot) <- !off;
      link_len.(slot) <- len;
      link_base.(slot) <- l.s_base;
      Array.blit l.s_pres 0 l_pre !off len;
      Array.blit l.s_posts 0 l_post !off len;
      Array.blit l.s_ups 0 l_up !off len;
      Array.blit l.s_nodes 0 l_node !off len;
      Hashtbl.replace dir paths.(l.s_path) slot;
      off := !off + len)
    s.s_links;
  let multi =
    Array.init nlinks (fun slot ->
        has_nested l_pre l_post link_off.(slot) link_len.(slot))
  in
  let fz = freeze backend in
  {
    n = s.s_n;
    pre = fz s.s_pre;
    post = fz s.s_post;
    node_path = fz s.s_node_paths;
    paths;
    dir;
    link_path;
    link_off;
    link_len;
    link_base;
    l_pre = fz l_pre;
    l_post = fz l_post;
    l_up = fz l_up;
    l_node = fz l_node;
    doc_pre = fz s.s_doc_pres;
    doc_id = fz s.s_doc_ids;
    doc_base = s.s_doc_base;
    total_bytes = s.s_total_bytes;
    multi;
    source = None;
  }
