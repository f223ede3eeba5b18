let compile ?limit ?max_expansions ~strategy ~value_mode idx pattern =
  let mem p = Option.is_some (Xindex.Labeled.link idx p) in
  let flagged = Xindex.Labeled.path_multiple idx in
  let cnodes = Instantiate.run ?limit ~mem ~value_mode pattern in
  List.concat_map (Query_seq.compile ?max_expansions ~flagged ~strategy) cnodes

let query ?mode ?pager ?stats ?limit ?max_expansions ~strategy ~value_mode idx
    pattern =
  let compiled = compile ?limit ?max_expansions ~strategy ~value_mode idx pattern in
  Matcher.run_collect ?mode ?pager ?stats idx compiled

type step = { path : string; link_length : int; lookahead : int }

type explanation = {
  pattern : string;
  instantiations : int;
  sequences : int;
  steps : step array list;
  results : int;
  stats : Matcher.stats;
}

let explain ?mode ?limit ?max_expansions ~strategy ~value_mode idx pattern =
  let mem p = Option.is_some (Xindex.Labeled.link idx p) in
  let flagged = Xindex.Labeled.path_multiple idx in
  let cnodes = Instantiate.run ?limit ~mem ~value_mode pattern in
  let compiled =
    List.concat_map (Query_seq.compile ?max_expansions ~flagged ~strategy) cnodes
  in
  let stats = Matcher.create_stats () in
  let results = Matcher.run_collect ?mode ~stats idx compiled in
  let steps (q : Query_seq.compiled) =
    let rare = Matcher.lookahead idx q in
    Array.mapi
      (fun i p ->
        {
          path = Sequencing.Path.to_string p;
          link_length =
            (match Xindex.Labeled.link idx p with
             | Some l -> Xindex.Labeled.link_length l
             | None -> 0);
          lookahead = rare.(i);
        })
      q.paths
  in
  {
    pattern = Pattern.to_string pattern;
    instantiations = List.length cnodes;
    sequences = List.length compiled;
    steps = List.map steps compiled;
    results = List.length results;
    stats;
  }
