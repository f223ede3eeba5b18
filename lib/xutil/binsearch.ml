let lower_bound a ~len x =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound a ~len x =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let floor_index a ~len x = upper_bound a ~len x - 1

(* Accessor-generic variants: the same searches over any indexed int
   source (flat buffers, paged columns) instead of a heap array. *)

let lower_bound_by ~get ~len x =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if get mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound_by ~get ~len x =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if get mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let floor_index_by ~get ~len x = upper_bound_by ~get ~len x - 1

(* Exponential search from [from]: probe [from], [from + 1], [from + 3],
   [from + 7], ... until a probe reaches [x] (or [len]), then binary
   search the last bracket.  [from = 0] carries no locality, so it is a
   plain binary search over the whole array instead.  Plain loops over
   local refs: nothing here allocates. *)
let gallop_by ~get ~len ~from x =
  if from >= len then len
  else if from = 0 then lower_bound_by ~get ~len x
  else begin
    let lo = ref from and hi = ref from and step = ref 1 in
    while !hi < len && get !hi < x do
      lo := !hi + 1;
      hi := !hi + !step;
      step := 2 * !step
    done;
    if !hi > len then hi := len;
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if get mid < x then lo := mid + 1 else hi := mid
    done;
    !lo
  end
