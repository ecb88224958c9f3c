let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s

let render ~header rows =
  let arity = List.length header in
  List.iter
    (fun row ->
      if List.length row <> arity then
        invalid_arg "Table.render: row arity mismatch")
    rows;
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let sep =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  (* the first column is left-aligned, the rest right-aligned *)
  let line cells =
    let padded =
      List.mapi
        (fun i (w, c) -> " " ^ pad ~left:(i = 0) w c ^ " ")
        (List.combine widths cells)
    in
    "|" ^ String.concat "|" padded ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (line header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (line row ^ "\n")) rows;
  Buffer.add_string buf sep;
  Buffer.contents buf

let print ~header rows = print_endline (render ~header rows)
