package com.fix;

public class Ledger {
    private int entries;

    public void post(int value) {
        if (value == 0) {
            throw new IllegalArgumentException("zero entry");
        }
        entries++;
    }

    public int size() {
        return entries;
    }
}
