package com.gate;

public class Box {
    private final int size;

    public Box() { this(4); if (size > 8) { throw new IllegalStateException("default too big"); } }

    public Box(int n) {
        super();
        if (n < 0) {
            throw new IllegalArgumentException("negative size");
        }
        size = n;
    }

    public int size() {
        return size;
    }
}
