type series = { label : string; points : (float * float) array; color : string }

let default_colors =
  [| "#4477aa"; "#ee6677"; "#228833"; "#ccbb44"; "#66ccee"; "#aa3377"; "#bbbbbb" |]

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* data extents over all series, padded slightly; degenerate ranges widen *)
let extents series =
  let xs = List.concat_map (fun s -> Array.to_list (Array.map fst s.points)) series in
  let ys = List.concat_map (fun s -> Array.to_list (Array.map snd s.points)) series in
  let range vs =
    match vs with
    | [] -> (0.0, 1.0)
    | v :: _ ->
      let lo = List.fold_left Float.min v vs and hi = List.fold_left Float.max v vs in
      if hi > lo then (lo, hi) else (lo -. 0.5, hi +. 0.5)
  in
  (range xs, range ys)

let nice_ticks lo hi =
  let span = hi -. lo in
  let raw = span /. 5.0 in
  let mag = 10.0 ** Float.round (log10 raw) in
  let step =
    List.find_opt (fun s -> s >= raw) [ mag /. 2.0; mag; mag *. 2.0; mag *. 5.0 ]
    |> Option.value ~default:mag
  in
  let first = Float.round (lo /. step) *. step in
  let rec go v acc = if v > hi +. (step /. 2.0) then List.rev acc else go (v +. step) (v :: acc) in
  List.filter (fun t -> t >= lo -. 1e-9 && t <= hi +. 1e-9) (go first [])

let width = 640
let height = 440

let chart ~title ~x_label ~y_label ~draw series =
  let w = float_of_int width and h = float_of_int height in
  let ml = 64.0 and mr = 140.0 and mt = 40.0 and mb = 52.0 in
  let (xlo, xhi), (ylo, yhi) = extents series in
  let px x = ml +. ((x -. xlo) /. (xhi -. xlo) *. (w -. ml -. mr)) in
  let py y = h -. mb -. ((y -. ylo) /. (yhi -. ylo) *. (h -. mt -. mb)) in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d \
        %d\" font-family=\"sans-serif\">\n"
       width height width height);
  Buffer.add_string buf
    (Printf.sprintf "<text x=\"%.0f\" y=\"22\" font-size=\"15\" font-weight=\"bold\">%s</text>\n"
       ml (escape title));
  (* axes *)
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#333\"/>\n" ml (h -. mb)
       (w -. mr) (h -. mb));
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#333\"/>\n" ml mt ml
       (h -. mb));
  (* ticks *)
  List.iter
    (fun t ->
      let x = px t in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#333\"/>\n\
            <text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" text-anchor=\"middle\">%g</text>\n"
           x (h -. mb) x
           (h -. mb +. 5.0)
           x
           (h -. mb +. 18.0)
           t))
    (nice_ticks xlo xhi);
  List.iter
    (fun t ->
      let y = py t in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#333\"/>\n\
            <text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" text-anchor=\"end\">%g</text>\n"
           (ml -. 5.0) y ml y (ml -. 8.0) (y +. 3.0) t))
    (nice_ticks ylo yhi);
  (* axis labels *)
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%.1f\" y=\"%.1f\" font-size=\"12\" text-anchor=\"middle\">%s</text>\n"
       ((ml +. w -. mr) /. 2.0)
       (h -. 12.0) (escape x_label));
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"16\" y=\"%.1f\" font-size=\"12\" text-anchor=\"middle\" \
        transform=\"rotate(-90 16 %.1f)\">%s</text>\n"
       ((mt +. h -. mb) /. 2.0)
       ((mt +. h -. mb) /. 2.0)
       (escape y_label));
  (* series + legend *)
  List.iteri
    (fun i s ->
      draw buf ~px ~py s;
      let ly = mt +. (float_of_int i *. 18.0) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%.1f\" y=\"%.1f\" width=\"10\" height=\"10\" fill=\"%s\"/>\n\
            <text x=\"%.1f\" y=\"%.1f\" font-size=\"11\">%s</text>\n"
           (w -. mr +. 10.0) ly s.color
           (w -. mr +. 25.0)
           (ly +. 9.0) (escape s.label)))
    series;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let scatter ~title ~x_label ~y_label series =
  chart ~title ~x_label ~y_label series ~draw:(fun buf ~px ~py s ->
      Array.iter
        (fun (x, y) ->
          Buffer.add_string buf
            (Printf.sprintf
               "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"1.8\" fill=\"%s\" fill-opacity=\"0.55\"/>\n"
               (px x) (py y) s.color))
        s.points)

let lines ~title ~x_label ~y_label series =
  chart ~title ~x_label ~y_label series ~draw:(fun buf ~px ~py s ->
      if Array.length s.points > 0 then begin
        let pts =
          String.concat " "
            (Array.to_list
               (Array.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y)) s.points))
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.8\"/>\n" pts
             s.color)
      end)

let write ~path svg =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc svg)
